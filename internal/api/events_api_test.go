package api

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cubefit/internal/baseline"
	"cubefit/internal/obs"
	"cubefit/internal/workload"
)

func TestDebugEventsEndpoint(t *testing.T) {
	srv := newServer(t)

	// Before any admission: an empty but well-formed dump.
	var empty struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/events", nil, &empty); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if empty.Total != 0 || len(empty.Events) != 0 {
		t.Errorf("empty ring dump = %+v", empty)
	}

	for i := 1; i <= 3; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "load": 0.3}, nil); code != http.StatusCreated {
			t.Fatalf("place %d: status %d", i, code)
		}
	}

	var dump struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/events", nil, &dump); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Fatal("admissions recorded no events")
	}
	if uint64(len(dump.Events)) != dump.Total {
		t.Errorf("events %d != total %d (ring should not have wrapped)", len(dump.Events), dump.Total)
	}
	// Events arrive stamped and ordered.
	for i, e := range dump.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d has no timestamp", i)
		}
	}

	// ?n= limits the dump to the most recent events.
	var limited struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/events?n=2", nil, &limited); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(limited.Events) != 2 || limited.Total != dump.Total {
		t.Errorf("limited dump: %d events, total %d", len(limited.Events), limited.Total)
	}
	if limited.Events[1].Seq != dump.Events[len(dump.Events)-1].Seq {
		t.Error("?n=2 did not return the most recent events")
	}

	if code := doJSON(t, "GET", srv.URL+"/debug/events?n=bogus", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bogus n: status %d, want 400", code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
		map[string]any{"id": 5, "load": 0.4}, nil); code != http.StatusCreated {
		t.Fatalf("place: status %d", code)
	}

	var exp struct {
		Tenant   int           `json:"tenant"`
		Load     float64       `json:"load"`
		Servers  []int         `json:"servers"`
		Traced   bool          `json:"traced"`
		Decision *obs.Decision `json:"decision"`
		Failover []struct {
			Replica    int   `json:"replica"`
			Server     int   `json:"server"`
			FailoverTo []int `json:"failoverTo"`
		} `json:"failover"`
	}
	if code := doJSON(t, "GET", srv.URL+"/explain/tenants/5", nil, &exp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if exp.Tenant != 5 || len(exp.Servers) == 0 {
		t.Fatalf("explain = %+v", exp)
	}
	if !exp.Traced || exp.Decision == nil {
		t.Fatal("admitted tenant is not traced")
	}
	if exp.Decision.Path == obs.PathUnknown || exp.Decision.Path == "" {
		t.Errorf("decision path = %q", exp.Decision.Path)
	}
	if len(exp.Decision.Replicas) != len(exp.Servers) {
		t.Errorf("decision has %d replicas, placement has %d servers",
			len(exp.Decision.Replicas), len(exp.Servers))
	}
	if len(exp.Failover) != len(exp.Servers) {
		t.Fatalf("failover rows = %d, servers = %d", len(exp.Failover), len(exp.Servers))
	}
	for _, row := range exp.Failover {
		if len(row.FailoverTo) != len(exp.Servers)-1 {
			t.Errorf("replica %d fails over to %v, want the %d other hosts",
				row.Replica, row.FailoverTo, len(exp.Servers)-1)
		}
		for _, to := range row.FailoverTo {
			if to == row.Server {
				t.Errorf("replica %d fails over to its own server %d", row.Replica, to)
			}
		}
	}

	if code := doJSON(t, "GET", srv.URL+"/explain/tenants/99", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d, want 404", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/explain/tenants/abc", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", code)
	}
}

// TestRecorderFeedsEngineMetrics checks the event-fed engine families on
// /metrics against the engine and the complete event stream: the
// per-kind counter against the ring's events by kind, servers opened and
// active mature bins against the engine, and each cube cursor against the
// counter of its cube's last advance. The attempt-to-admit latency family
// is gone: the span's place stage times admissions.
func TestRecorderFeedsEngineMetrics(t *testing.T) {
	srv, cf, ctrl := newEngineServer(t)
	for b := 0; b < 8; b++ {
		items := make([]map[string]any, 50)
		for i := range items {
			items[i] = map[string]any{"id": b*50 + i, "clients": 1 + (b*50+i)%15}
		}
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{"tenants": items}, nil); code != http.StatusOK {
			t.Fatalf("batch %d: status %d", b, code)
		}
	}
	// Departures free capacity, so retired bins can come back.
	for id := 0; id < 400; id += 3 {
		if code := doDelete(t, srv.URL+"/v1/tenants/"+strconv.Itoa(id)); code != http.StatusNoContent {
			t.Fatalf("delete %d: status %d", id, code)
		}
	}
	total, events := ctrl.ring.Snapshot(-1)
	if total != uint64(len(events)) {
		t.Fatalf("ring wrapped (%d of %d events); the test needs the whole stream", len(events), total)
	}
	want := map[string]float64{
		"cubefit_servers_opened":     float64(cf.Placement().NumServers()),
		"cubefit_active_mature_bins": float64(cf.NumActiveMatureBins()),
	}
	for _, e := range events {
		want[`cubefit_engine_events_total{kind="`+string(e.Kind)+`"}`]++
		if e.Kind == obs.KindCubeAdvance {
			want[`cubefit_cube_cursor{class="`+strconv.Itoa(e.Class)+`",tiny="`+strconv.FormatBool(e.Tiny)+`"}`] = float64(e.Counter)
		}
	}
	for _, kind := range []obs.Kind{obs.KindAttempt, obs.KindAdmit, obs.KindDepart, obs.KindBinOpen, obs.KindBinMature, obs.KindCubeAdvance} {
		if want[`cubefit_engine_events_total{kind="`+string(kind)+`"}`] == 0 {
			t.Fatalf("the workload recorded no %s event", kind)
		}
	}
	got := scrapeSamples(t, srv.URL)
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, w)
		}
	}
	for name := range got {
		if strings.HasPrefix(name, "cubefit_place_duration_seconds") {
			t.Errorf("removed latency family still exported: %s", name)
		}
	}
}

// scrapeSamples fetches GET /metrics and returns every sample by its
// name and labels as exposed.
func scrapeSamples(t *testing.T, url string) map[string]float64 {
	t.Helper()
	body := getBody(t, url+"/metrics")
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestExplainOnBaselineEngine covers a recordable single-stage engine
// behind the same endpoints.
func TestExplainOnBaselineEngine(t *testing.T) {
	alg, err := baseline.New(baseline.FirstFit, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(alg, workload.DefaultLoadModel())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)

	if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
		map[string]any{"id": 1, "load": 0.3}, nil); code != http.StatusCreated {
		t.Fatalf("place: status %d", code)
	}
	var exp struct {
		Traced   bool          `json:"traced"`
		Decision *obs.Decision `json:"decision"`
	}
	if code := doJSON(t, "GET", srv.URL+"/explain/tenants/1", nil, &exp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !exp.Traced || exp.Decision == nil || exp.Decision.Engine != "first-fit" {
		t.Errorf("baseline explain = %+v", exp)
	}
}
