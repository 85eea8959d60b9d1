package api

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cubefit/internal/headroom"
	"cubefit/internal/packing"
)

// newHeadroomController returns a controller over the default CubeFit
// engine alongside its test server.
func newHeadroomController(t *testing.T) (*Controller, *httptest.Server) {
	t.Helper()
	c, err := NewDefaultController()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// scrapeGauges fetches GET /metrics and returns every unlabelled sample
// by metric name.
func scrapeGauges(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	vals := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, raw, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %v", name, err)
		}
		vals[name] = v
	}
	return vals, sc.Err()
}

// headroomGaugesMatch reports how the exported headroom gauges differ
// from the auditor summary (empty when they agree).
func headroomGaugesMatch(vals map[string]float64, s headroom.Summary) []string {
	want := map[string]float64{
		"cubefit_headroom_min_slack":                 s.MinSlack,
		"cubefit_headroom_p50_slack":                 s.P50Slack,
		"cubefit_headroom_redline":                   s.RedLine,
		"cubefit_headroom_below_redline":             float64(s.BelowRedLine),
		"cubefit_headroom_overloaded_servers":        float64(s.Overloaded),
		"cubefit_headroom_overload_on_failure_total": float64(s.OverloadEvents),
	}
	var diffs []string
	for name, w := range want {
		if got, ok := vals[name]; !ok || got != w {
			diffs = append(diffs, fmt.Sprintf("%s = %v (present %v), want %v", name, got, ok, w))
		}
	}
	return diffs
}

func TestHeadroomEndpoint(t *testing.T) {
	c, srv := newHeadroomController(t)
	loads := []float64{0.6, 0.3, 0.45, 0.72, 0.15, 0.9, 0.25}
	for i, load := range loads {
		code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": i + 1, "load": load}, nil)
		if code != http.StatusCreated {
			t.Fatalf("place %d: status %d", i+1, code)
		}
	}

	var out struct {
		headroom.Report
		OverloadEventsTotal uint64 `json:"overloadEventsTotal"`
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/headroom", nil, &out); code != http.StatusOK {
		t.Fatalf("headroom status %d", code)
	}
	p := c.alg.Placement()
	if out.Gamma != p.Gamma() {
		t.Fatalf("gamma = %d, want %d", out.Gamma, p.Gamma())
	}
	if len(out.Servers) != p.NumServers() {
		t.Fatalf("reported %d servers, placement has %d", len(out.Servers), p.NumServers())
	}
	// Every open server carrying load must expose its worst failure set;
	// a robust placement keeps every slack non-negative.
	for _, e := range out.Servers {
		if e.Level > 0 && len(e.WorstSet) == 0 {
			t.Fatalf("server %d has level %v but empty worst set", e.Server, e.Level)
		}
		if e.Overloaded || e.Slack < -packing.CapacityEps {
			t.Fatalf("robust placement reports overloaded server: %+v", e)
		}
	}
	want := headroom.Exhaustive(p, out.RedLine)
	if out.MinSlack != want.MinSlack || out.MinServer != want.MinServer ||
		out.BelowRedLine != want.BelowRedLine {
		t.Fatalf("aggregates %+v disagree with exhaustive %+v", out.Report, want)
	}

	// ?worst=2 limits the entries to the two tightest servers.
	var worst struct {
		headroom.Report
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/headroom?worst=2", nil, &worst); code != http.StatusOK {
		t.Fatalf("headroom?worst status %d", code)
	}
	if len(worst.Servers) != 2 {
		t.Fatalf("worst=2 returned %d entries", len(worst.Servers))
	}
	if worst.Servers[0].Server != out.MinServer {
		t.Fatalf("worst[0] = server %d, min is %d", worst.Servers[0].Server, out.MinServer)
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/headroom?worst=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid worst: status %d", code)
	}
}

func TestHeadroomServerEndpoint(t *testing.T) {
	c, srv := newHeadroomController(t)
	for i, load := range []float64{0.5, 0.62, 0.31, 0.44, 0.27} {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": i + 1, "load": load}, nil); code != http.StatusCreated {
			t.Fatalf("place %d: status %d", i+1, code)
		}
	}
	min, ok := c.auditor.Min()
	if !ok {
		t.Fatal("no audited servers")
	}
	var out struct {
		headroom.Entry
		BelowRedLine bool                    `json:"belowRedLine"`
		Contributors []headroom.Contribution `json:"contributors"`
	}
	url := fmt.Sprintf("%s/debug/headroom/servers/%d", srv.URL, min.Server)
	if code := doJSON(t, "GET", url, nil, &out); code != http.StatusOK {
		t.Fatalf("headroom server status %d", code)
	}
	if out.Server != min.Server || out.Slack != min.Slack {
		t.Fatalf("entry %+v, want %+v", out.Entry, min)
	}
	if len(out.Contributors) != len(min.WorstSet) {
		t.Fatalf("%d contributors for %d worst peers", len(out.Contributors), len(min.WorstSet))
	}
	for i, contrib := range out.Contributors {
		if contrib.Peer != min.WorstSet[i] {
			t.Fatalf("contributor %d is peer %d, want %d", i, contrib.Peer, min.WorstSet[i])
		}
		if len(contrib.Tenants) == 0 {
			t.Fatalf("peer %d contributes %v load with no tenants", contrib.Peer, contrib.Shared)
		}
		sum := 0.0
		for _, ts := range contrib.Tenants {
			sum += ts.Size
		}
		if !packing.AlmostEqualTol(sum, contrib.Shared, packing.CapacityEps) {
			t.Fatalf("peer %d tenant sizes sum %v != shared %v", contrib.Peer, sum, contrib.Shared)
		}
	}

	if code := doJSON(t, "GET", srv.URL+"/debug/headroom/servers/99999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown server: status %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/headroom/servers/abc", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad server id: status %d", code)
	}
}

func TestHeadroomMetricsExported(t *testing.T) {
	c, srv := newHeadroomController(t)
	for i, load := range []float64{0.4, 0.55, 0.62} {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": i + 1, "load": load}, nil); code != http.StatusCreated {
			t.Fatalf("place %d: status %d", i+1, code)
		}
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/tenants/2", nil, nil); code != http.StatusNoContent {
		t.Fatal("remove failed")
	}
	// A scrape computes the gauges it serves, with no health loop running:
	// the headroom gauges equal the auditor's summary of the current
	// placement and the process gauges are live.
	vals, err := scrapeGauges(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := headroomGaugesMatch(vals, c.auditor.Summary()); len(diffs) > 0 {
		t.Fatalf("exported gauges diverge from the auditor:\n%s", strings.Join(diffs, "\n"))
	}
	if g := vals["cubefit_process_goroutines"]; g <= 0 {
		t.Fatalf("cubefit_process_goroutines = %v, want > 0", g)
	}
	c.SetHeadroomRedLine(0.25)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"cubefit_headroom_min_slack ",
		"cubefit_headroom_p50_slack ",
		"cubefit_headroom_redline 0.25",
		"cubefit_headroom_below_redline ",
		"cubefit_headroom_overloaded_servers 0",
		"cubefit_headroom_overload_on_failure_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The exported minimum matches the auditor.
	min, _ := c.auditor.Min()
	if !strings.Contains(text, fmt.Sprintf("cubefit_headroom_min_slack %g", min.Slack)) {
		t.Fatalf("/metrics min_slack does not match auditor value %g:\n%s", min.Slack, text)
	}
}

// TestHeadroomConcurrent hammers every headroom reader — the
// /debug/headroom routes, GET /metrics and the sampler tick — while single
// and batch admissions and departures mutate the placement. Run under
// -race it is the acceptance check that the auditor and the gauges
// computed on read are safe beside the controller's RWMutex; CI repeats
// it with a timeout, so a lock-order deadlock between the sampler hook and
// the placer fails instead of hanging. The final audit must agree with
// the exhaustive reference, and the exported gauges and the sampler's
// last sample with the auditor's summary.
func TestHeadroomConcurrent(t *testing.T) {
	c, srv := newHeadroomController(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// expect runs one request from a goroutine other than the test's own.
	expect := func(method, url string, body, out any, want int) error {
		code, err := tryJSON(method, url, body, out)
		if err == nil && code != want {
			err = fmt.Errorf("%s %s: status %d, want %d", method, url, code, want)
		}
		return err
	}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := w*100 + i + 1
				if err := expect("POST", srv.URL+"/v1/tenants", map[string]any{"id": id, "clients": 3 + i}, nil, http.StatusCreated); err != nil {
					errs <- err
					return
				}
				batch := map[string]any{"tenants": []map[string]any{
					{"id": id + 1000, "clients": 1 + i},
					{"id": id + 2000, "clients": 15 - i},
				}}
				if err := expect("POST", srv.URL+"/v1/tenants:batch", batch, nil, http.StatusOK); err != nil {
					errs <- err
					return
				}
				if i%3 == 2 {
					for _, gone := range []int{id, id + 1000} {
						if err := expect("DELETE", srv.URL+fmt.Sprintf("/v1/tenants/%d", gone), nil, nil, http.StatusNoContent); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				var out struct {
					headroom.Report
				}
				if err := expect("GET", srv.URL+"/debug/headroom", nil, &out, http.StatusOK); err != nil {
					errs <- err
					return
				}
				for _, e := range out.Servers {
					if e.Level > 0 && len(e.WorstSet) == 0 {
						errs <- fmt.Errorf("server %d: loaded but empty worst set", e.Server)
						return
					}
				}
				if _, err := tryJSON("GET", srv.URL+"/debug/headroom/servers/0", nil, nil); err != nil {
					errs <- err
					return
				}
				if _, err := scrapeGauges(srv.URL); err != nil {
					errs <- err
					return
				}
				c.HealthTick()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Scrape before any other read drains the auditor: the gauges must
	// already reflect the last mutation.
	vals, err := scrapeGauges(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.auditor.Report()
	want := headroom.Exhaustive(c.alg.Placement(), rep.RedLine)
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("post-traffic audit diverged from exhaustive\n got: %+v\nwant: %+v", rep, want)
	}
	sum := c.auditor.Summary()
	if diffs := headroomGaugesMatch(vals, sum); len(diffs) > 0 {
		t.Fatalf("exported gauges diverge from the auditor:\n%s", strings.Join(diffs, "\n"))
	}
	c.HealthTick()
	pts, ok := c.Health().Timeline("cubefit_headroom_min_slack", 0)
	if !ok || len(pts) == 0 {
		t.Fatal("sampler recorded no cubefit_headroom_min_slack series")
	}
	if got := pts[len(pts)-1].Value; got != sum.MinSlack {
		t.Fatalf("sampler's last min-slack sample %v, auditor %v", got, sum.MinSlack)
	}
}
