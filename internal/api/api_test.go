package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rfi"
	"cubefit/internal/workload"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	c, err := NewDefaultController()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	code, err := tryJSON(method, url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// tryJSON is doJSON returning its error instead of failing the test, for
// goroutines other than the test's own.
func tryJSON(method, url string, body any, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	var out map[string]string
	if code := doJSON(t, "GET", srv.URL+"/v1/healthz", nil, &out); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz body %v", out)
	}
}

func TestPlaceAndGetTenant(t *testing.T) {
	srv := newServer(t)
	var placed struct {
		ID      int     `json:"id"`
		Load    float64 `json:"load"`
		Servers []int   `json:"servers"`
	}
	code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, &placed)
	if code != http.StatusCreated {
		t.Fatalf("place status %d", code)
	}
	if len(placed.Servers) != 2 || placed.Servers[0] == placed.Servers[1] {
		t.Fatalf("servers = %v", placed.Servers)
	}
	var got struct {
		Load    float64 `json:"load"`
		Servers []int   `json:"servers"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/tenants/1", nil, &got); code != 200 {
		t.Fatalf("get status %d", code)
	}
	if got.Load != 0.3 || len(got.Servers) != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestPlaceByClients(t *testing.T) {
	srv := newServer(t)
	var placed struct {
		Load float64 `json:"load"`
	}
	code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "clients": 8}, &placed)
	if code != http.StatusCreated {
		t.Fatalf("status %d", code)
	}
	want := workload.DefaultLoadModel().Load(8)
	if placed.Load != want {
		t.Fatalf("load %v, want %v", placed.Load, want)
	}
}

func TestPlaceConflictAndErrors(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != http.StatusCreated {
		t.Fatalf("status %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate status %d", code)
	}
	// Invalid requests are rejected up front with 400, before touching
	// algorithm state.
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 3, "load": 7.0}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad load status %d", code)
	}
	// Raw garbage body.
	resp, err := http.Post(srv.URL+"/v1/tenants", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d", resp.StatusCode)
	}
}

func TestPlaceRequestValidation(t *testing.T) {
	srv := newServer(t)
	cases := []map[string]any{
		{"id": 1},                             // neither load nor clients
		{"id": 2, "load": -0.5},               // negative load
		{"id": 3, "clients": -4},              // negative clients
		{"id": 4, "load": 1.5},                // load > 1
		{"id": -1, "load": 0.3},               // negative id
		{"id": 5, "load": 0.3, "clients": -1}, // load fine, clients negative
	}
	for _, body := range cases {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants", body, nil); code != http.StatusBadRequest {
			t.Fatalf("body %v: status %d, want 400", body, code)
		}
	}
	// Invalid requests must not have perturbed the placement.
	var st struct {
		Tenants int `json:"tenants"`
		Servers int `json:"servers"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", nil, &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Tenants != 0 || st.Servers != 0 {
		t.Fatalf("rejected requests touched state: %+v", st)
	}
}

func TestDrillRejectsNegativeFailures(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/drill", map[string]any{"failures": -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative failures status %d, want 400", code)
	}
}

func TestGetUnknownTenant(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "GET", srv.URL+"/v1/tenants/42", nil, nil); code != http.StatusNotFound {
		t.Fatalf("status %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/tenants/abc", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("status %d", code)
	}
}

func TestRemoveTenant(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != http.StatusCreated {
		t.Fatal("place failed")
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/tenants/1", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/tenants/1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("re-delete status %d", code)
	}
}

func TestRemoveUnsupportedAlgorithm(t *testing.T) {
	a, err := rfi.New(rfi.Config{Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(a, workload.DefaultLoadModel())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != http.StatusCreated {
		t.Fatal("place failed")
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/tenants/1", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("delete on RFI status %d", code)
	}
}

func TestStatsAndServers(t *testing.T) {
	srv := newServer(t)
	for i := 1; i <= 5; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 8}, nil); code != http.StatusCreated {
			t.Fatal("place failed")
		}
	}
	var st struct {
		Algorithm   string  `json:"algorithm"`
		Tenants     int     `json:"tenants"`
		UsedServers int     `json:"usedServers"`
		Utilization float64 `json:"utilization"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", nil, &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Tenants != 5 || st.UsedServers == 0 || st.Utilization <= 0 {
		t.Fatalf("stats %+v", st)
	}
	var servers []struct {
		ID       int     `json:"id"`
		Level    float64 `json:"level"`
		Replicas int     `json:"replicas"`
		Clients  int     `json:"clients"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/servers", nil, &servers); code != 200 {
		t.Fatalf("servers status %d", code)
	}
	if len(servers) != st.UsedServers {
		t.Fatalf("%d servers reported, stats says %d used", len(servers), st.UsedServers)
	}
	totalClients := 0
	for _, s := range servers {
		totalClients += s.Clients
	}
	if totalClients != 5*8 {
		t.Fatalf("total clients %d, want 40", totalClients)
	}
}

func TestValidateEndpoint(t *testing.T) {
	srv := newServer(t)
	var out struct {
		Robust bool `json:"robust"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/validate", nil, &out); code != 200 || !out.Robust {
		t.Fatalf("validate: code %d, body %+v", code, out)
	}
}

func TestDrill(t *testing.T) {
	srv := newServer(t)
	for i := 1; i <= 30; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 5 + i%10}, nil); code != http.StatusCreated {
			t.Fatal("place failed")
		}
	}
	var out struct {
		FailedServers  []int   `json:"failedServers"`
		MaxClientLoad  float64 `json:"maxClientLoad"`
		ClientCapacity int     `json:"clientCapacity"`
		WorstLoad      float64 `json:"worstLoad"`
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/drill", map[string]any{"failures": 1}, &out); code != 200 {
		t.Fatalf("drill status %d", code)
	}
	if len(out.FailedServers) != 1 {
		t.Fatalf("drill %+v", out)
	}
	if out.MaxClientLoad > float64(out.ClientCapacity) {
		t.Fatalf("CubeFit drill predicts overload: %+v", out)
	}
	if !packing.WithinCapacity(out.WorstLoad) {
		t.Fatalf("worst load %v exceeds capacity", out.WorstLoad)
	}
	// Too many failures.
	if code := doJSON(t, "POST", srv.URL+"/v1/drill", map[string]any{"failures": 10000}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("excessive drill status %d", code)
	}
}

func TestPlacementSnapshot(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.4}, nil); code != http.StatusCreated {
		t.Fatal("place failed")
	}
	var snap struct {
		Gamma   int `json:"gamma"`
		Servers []struct {
			Replicas []struct {
				Tenant int `json:"tenant"`
			} `json:"replicas"`
		} `json:"servers"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/placement", nil, &snap); code != 200 {
		t.Fatalf("placement status %d", code)
	}
	if snap.Gamma != 2 {
		t.Fatalf("gamma %d", snap.Gamma)
	}
	replicas := 0
	for _, s := range snap.Servers {
		replicas += len(s.Replicas)
	}
	if replicas != 2 {
		t.Fatalf("%d replicas in snapshot", replicas)
	}
}

func TestPlacementSnapshotCacheInvalidation(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.4}, nil); code != http.StatusCreated {
		t.Fatal("place failed")
	}
	var snap struct {
		Tenants []struct {
			ID int `json:"id"`
		} `json:"tenants"`
	}
	// Two reads in a row exercise the cached path.
	for i := 0; i < 2; i++ {
		if code := doJSON(t, "GET", srv.URL+"/v1/placement", nil, &snap); code != 200 {
			t.Fatalf("placement status %d", code)
		}
		if len(snap.Tenants) != 1 {
			t.Fatalf("snapshot tenants %v", snap.Tenants)
		}
	}
	// A mutation must invalidate the cache.
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "load": 0.4}, nil); code != http.StatusCreated {
		t.Fatal("place failed")
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/placement", nil, &snap); code != 200 {
		t.Fatal("placement read failed")
	}
	if len(snap.Tenants) != 2 {
		t.Fatalf("stale snapshot after admission: %v", snap.Tenants)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/tenants/1", nil, nil); code != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/placement", nil, &snap); code != 200 {
		t.Fatal("placement read failed")
	}
	if len(snap.Tenants) != 1 || snap.Tenants[0].ID != 2 {
		t.Fatalf("stale snapshot after departure: %v", snap.Tenants)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.4}, nil); code != http.StatusCreated {
		t.Fatal("place failed")
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.4}, nil); code != http.StatusConflict {
		t.Fatal("duplicate accepted")
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", nil, nil); code != 200 {
		t.Fatal("stats failed")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`cubefit_http_requests_total{route="place",method="POST",code="2xx"} 1`,
		`cubefit_http_requests_total{route="place",method="POST",code="4xx"} 1`,
		`cubefit_http_requests_total{route="stats",method="GET",code="2xx"} 1`,
		`cubefit_http_request_duration_seconds_bucket{route="place",le="+Inf"} 2`,
		`cubefit_admissions_total{outcome="regular"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestControllerConstructorErrors(t *testing.T) {
	if _, err := NewController(nil, workload.DefaultLoadModel()); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	a, err := rfi.New(rfi.Config{Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(a, workload.LoadModel{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

// placeOnly hides every method of the engine it wraps but those of
// packing.Algorithm, SetRecorder among them.
type placeOnly struct{ packing.Algorithm }

// TestControllerRequiresRecorder: the controller's event ring, auditor and
// engine metrics all feed on decision events, so an engine that cannot
// record them is refused.
func TestControllerRequiresRecorder(t *testing.T) {
	a, err := rfi.New(rfi.Config{Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(placeOnly{a}, workload.DefaultLoadModel()); err == nil ||
		!strings.Contains(err.Error(), "does not record decision events") {
		t.Fatalf("NewController on an engine without SetRecorder = %v, want a refusal", err)
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := newServer(t)
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(id int) {
			body, _ := json.Marshal(map[string]any{"id": id, "clients": 5})
			resp, err := http.Post(srv.URL+"/v1/tenants", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i + 1)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var out struct {
		Robust bool `json:"robust"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/validate", nil, &out); code != 200 || !out.Robust {
		t.Fatalf("post-concurrency validate failed: %d %+v", code, out)
	}
}
