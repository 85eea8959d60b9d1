package api

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"

	"cubefit/internal/clock"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/telemetry"
)

// healthTestConfig returns a rule configuration with every rule disabled
// and short hysteresis; each test switches on exactly the rule it
// exercises, so verdicts have a single unambiguous cause.
func healthTestConfig() telemetry.Config {
	cfg := telemetry.DefaultConfig()
	cfg.RecoverTicks = 2
	cfg.Burn.Targets = nil
	cfg.Headroom = telemetry.HeadroomConfig{Series: "off"}
	cfg.Queue.DegradedFraction = 0
	cfg.Queue.CriticalFraction = 0
	cfg.Queue.DegradedWaitSeconds = 0
	cfg.Queue.CriticalWaitSeconds = 0
	cfg.Stall = telemetry.StallConfig{}
	return cfg
}

// getStatus fetches url and returns only the response status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// wantReady asserts GET /readyz answers the expected status code.
func wantReady(t *testing.T, base string, code int) {
	t.Helper()
	if got := getStatus(t, base+"/readyz"); got != code {
		t.Fatalf("/readyz = %d, want %d", got, code)
	}
}

// TestHealthEndpoints covers the static contracts: /healthz is always
// 200 with the verdict, /readyz reflects draining, /debug/health reports
// state plus config, and /debug/timeline lists and serves series.
func TestHealthEndpoints(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	srv, _, ctrl := newEngineServer(t, WithClock(fake), WithHealthConfig(healthTestConfig()))

	var live livenessResponse
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, &live); code != 200 || live.Status != "healthy" {
		t.Fatalf("/healthz = %d %+v", code, live)
	}
	wantReady(t, srv.URL, 200)

	// Draining: readiness drops, liveness stays up.
	ctrl.SetDraining(true)
	var ready readyzResponse
	if code := doJSON(t, "GET", srv.URL+"/readyz", nil, &ready); code != 503 || !ready.Draining || ready.Ready {
		t.Fatalf("/readyz while draining = %d %+v", code, ready)
	}
	if code := getStatus(t, srv.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz while draining = %d", code)
	}
	ctrl.SetDraining(false)
	wantReady(t, srv.URL, 200)

	fake.Advance(time.Second)
	ctrl.HealthTick()
	var dbg healthDebugResponse
	if code := doJSON(t, "GET", srv.URL+"/debug/health", nil, &dbg); code != 200 {
		t.Fatalf("/debug/health = %d", code)
	}
	if dbg.State != telemetry.Healthy || dbg.Ticks != 1 || dbg.Config.RecoverTicks != 2 {
		t.Fatalf("/debug/health = %+v", dbg)
	}

	var idx timelineIndexResponse
	if code := doJSON(t, "GET", srv.URL+"/debug/timeline", nil, &idx); code != 200 || len(idx.Series) == 0 {
		t.Fatalf("/debug/timeline index = %d %+v", code, idx)
	}
	var tl timelineResponse
	url := srv.URL + "/debug/timeline?series=" + telemetry.SeriesWALStickyError + "&window=30s"
	if code := doJSON(t, "GET", url, nil, &tl); code != 200 || len(tl.Points) != 1 {
		t.Fatalf("/debug/timeline series = %d %+v", code, tl)
	}
	if code := getStatus(t, srv.URL+"/debug/timeline?series=no-such-series"); code != 404 {
		t.Fatalf("unknown series = %d, want 404", code)
	}
	if code := getStatus(t, srv.URL+"/debug/timeline?series=g&window=bogus"); code != 400 {
		t.Fatalf("bad window = %d, want 400", code)
	}
}

// TestReadyzFlipsOnBurnRateBreach drives real admissions through the
// HTTP layer against a 1ns latency objective: every request is "bad", so
// the multi-window burn rate saturates and readiness must drop, then
// recover once traffic stops and hysteresis elapses.
func TestReadyzFlipsOnBurnRateBreach(t *testing.T) {
	cfg := healthTestConfig()
	cfg.Burn.Objective = time.Nanosecond // no bucket bound fits: all traffic is bad
	cfg.Burn.FastWindow = 2 * time.Second
	cfg.Burn.SlowWindow = 4 * time.Second
	cfg.Burn.Targets = []string{`cubefit_http_request_duration_seconds{route="place"}`}
	fake := clock.NewFake(time.Unix(0, 0))
	srv, _, ctrl := newEngineServer(t, WithClock(fake), WithHealthConfig(cfg))

	tick := func() { fake.Advance(time.Second); ctrl.HealthTick() }

	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.1}, nil); code != 201 {
		t.Fatalf("place = %d", code)
	}
	tick()
	wantReady(t, srv.URL, 200) // one sample: no burn window yet

	for i := 2; i <= 4; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": i, "load": 0.1}, nil); code != 201 {
			t.Fatalf("place %d = %d", i, code)
		}
	}
	tick()
	wantReady(t, srv.URL, 503)
	if st := ctrl.Health().State(); st != telemetry.Critical {
		t.Fatalf("state = %v, want critical", st)
	}
	if tr := ctrl.Health().Status().Transitions; len(tr) == 0 ||
		len(tr[len(tr)-1].Rules) == 0 ||
		tr[len(tr)-1].Rules[0] != `slo-burn:cubefit_http_request_duration_seconds{route="place"}` {
		t.Fatalf("transitions = %+v", tr)
	}

	// No traffic: once the fast window slides past the burst the rule
	// goes quiet, and RecoverTicks=2 restores readiness.
	tick() // t=3: the 2s fast window still covers the burst — critical holds
	wantReady(t, srv.URL, 503)
	tick() // t=4: both windows quiet; first clean tick
	wantReady(t, srv.URL, 503)
	tick() // t=5: second clean tick — recovered
	wantReady(t, srv.URL, 200)
}

// TestReadyzFlipsOnHeadroomRedline puts the red-line floor above the
// slack an admission leaves behind: the verdict degrades while the tenant
// is placed and recovers after it departs, and readiness holds
// throughout, because slack below the floor violates nothing (CubeFit
// packs mature bins close to it by design).
func TestReadyzFlipsOnHeadroomRedline(t *testing.T) {
	cfg := healthTestConfig()
	cfg.Headroom = telemetry.HeadroomConfig{
		Series: telemetry.SeriesHeadroomMinSlack,
		Floor:  0.99, // any real placement leaves less slack than this
	}
	fake := clock.NewFake(time.Unix(0, 0))
	srv, _, ctrl := newEngineServer(t, WithClock(fake), WithHealthConfig(cfg))

	tick := func() { fake.Advance(time.Second); ctrl.HealthTick() }

	tick()
	wantReady(t, srv.URL, 200) // empty cluster reports full slack

	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.5}, nil); code != 201 {
		t.Fatalf("place = %d", code)
	}
	tick()
	wantReady(t, srv.URL, 200)
	st := ctrl.Health().Status()
	if st.State != telemetry.Degraded || len(st.Findings) != 1 || st.Findings[0].Rule != "headroom-redline" {
		t.Fatalf("state %v, findings = %+v", st.State, st.Findings)
	}

	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/tenants/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	tick()
	wantReady(t, srv.URL, 200)
	if st := ctrl.Health().Status(); st.State != telemetry.Degraded {
		t.Fatalf("state %v after one clean tick, want degraded (hysteresis)", st.State)
	}
	tick()
	wantReady(t, srv.URL, 200)
	if st := ctrl.Health().Status(); st.State != telemetry.Healthy {
		t.Fatalf("state %v after two clean ticks, want healthy", st.State)
	}
}

// TestReadyzFlipsOnStickyWALError trips the WAL mid-run: the failed
// group commit 503s the admission, the error gauge goes to 1, and the
// next health tick is immediately critical — and stays there, because
// the error is sticky.
func TestReadyzFlipsOnStickyWALError(t *testing.T) {
	fw := &flakyWriter{}
	fake := clock.NewFake(time.Unix(0, 0))
	srv, _, ctrl := newEngineServer(t, WithWAL(obs.NewWAL(fw)),
		WithClock(fake), WithHealthConfig(healthTestConfig()))

	tick := func() { fake.Advance(time.Second); ctrl.HealthTick() }

	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != 201 {
		t.Fatalf("place = %d", code)
	}
	tick()
	wantReady(t, srv.URL, 200)

	fw.trip()
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "load": 0.3}, nil); code != 503 {
		t.Fatalf("post-trip place = %d, want 503", code)
	}
	tick()
	wantReady(t, srv.URL, 503)
	st := ctrl.Health().Status()
	if len(st.Findings) != 1 || st.Findings[0].Rule != "wal-sticky-error" {
		t.Fatalf("findings = %+v", st.Findings)
	}
	// Sticky: readiness never comes back on its own.
	for i := 0; i < 5; i++ {
		tick()
	}
	wantReady(t, srv.URL, 503)
}

// blockingSyncer hangs the WAL group commit until released, simulating a
// stalled fsync. entered closes when the first Sync begins, giving tests
// a happens-before edge to the placer's prior work.
type blockingSyncer struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingSyncer() *blockingSyncer {
	return &blockingSyncer{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingSyncer) Write(p []byte) (int, error) { return len(p), nil }

func (b *blockingSyncer) Sync() error {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return nil
}

// TestReadyzFlipsOnPlacerStall hangs the placer inside a group commit
// with admissions and a departure queued behind it, while the test holds
// the controller write lock as a placer stalled inside an engine call
// would: the stall watchdog walks the state machine degraded→critical
// (readiness drops) and GET /metrics still answers, because neither the
// tick nor the scrape waits on the controller lock. Releasing the commit
// lets the queue through and restores readiness. The pipeline is driven
// with direct enqueues so the fake clock is only touched while the placer
// is provably parked inside Sync.
func TestReadyzFlipsOnPlacerStall(t *testing.T) {
	bs := newBlockingSyncer()
	cfg := healthTestConfig()
	cfg.Stall = telemetry.StallConfig{
		DepthSeries:    telemetry.SeriesQueueDepth,
		ProgressSeries: telemetry.SeriesPlaceProgress,
		Window:         2 * time.Second,
	}
	fake := clock.NewFake(time.Unix(0, 0))
	srv, _, ctrl := newEngineServer(t, WithWAL(obs.NewWAL(bs)),
		WithClock(fake), WithHealthConfig(cfg))

	enqueue := func(id int) *admitJob {
		job := &admitJob{
			items: []admitItem{{tenant: packing.Tenant{ID: packing.TenantID(id), Load: 0.1}}},
			done:  make(chan struct{}),
		}
		if !ctrl.enqueue(job) {
			t.Fatalf("enqueue %d refused", id)
		}
		return job
	}

	// The first job reaches the engine and hangs in its group commit.
	jobs := []*admitJob{enqueue(1)}
	<-bs.entered
	// Three more pile up behind it, and a departure behind them; the
	// queue-depth gauge (set at each enqueue, before the send) ends at 3
	// and stays there.
	for id := 2; id <= 4; id++ {
		jobs = append(jobs, enqueue(id))
	}
	departure := &admitJob{
		items: []admitItem{{tenant: packing.Tenant{ID: 1}, depart: true}},
		done:  make(chan struct{}),
	}
	if !ctrl.enqueue(departure) {
		t.Fatal("departure enqueue refused")
	}
	ctrl.mu.Lock()

	tick := func() { fake.Advance(time.Second); ctrl.HealthTick() }

	tick() // t=1: first depth/progress samples
	tick() // t=2: 1s of history — under the 2s window
	wantReady(t, srv.URL, 200)
	tick() // t=3: full 2s window with no progress — degraded
	wantReady(t, srv.URL, 200)
	if st := ctrl.Health().State(); st != telemetry.Degraded {
		t.Fatalf("state = %v, want degraded", st)
	}
	tick() // t=4
	tick() // t=5: 4s ≥ 2×window — critical
	wantReady(t, srv.URL, 503)
	st := ctrl.Health().Status()
	if len(st.Findings) != 1 || st.Findings[0].Rule != "placer-stall" {
		t.Fatalf("findings = %+v", st.Findings)
	}
	if _, err := scrapeGauges(srv.URL); err != nil {
		t.Fatal(err)
	}

	// Release the lock and the hung commit: the queue drains, every
	// admission lands and the departure applies.
	ctrl.mu.Unlock()
	close(bs.release)
	for i, job := range jobs {
		<-job.done
		if s := job.items[0].status; s != http.StatusCreated {
			t.Fatalf("job %d status = %d (%s)", i, s, job.items[0].err)
		}
	}
	<-departure.done
	if s := departure.items[0].status; s != http.StatusNoContent {
		t.Fatalf("departure status = %d (%s)", s, departure.items[0].err)
	}
	tick()
	tick() // RecoverTicks=2 with an empty queue
	wantReady(t, srv.URL, 200)
}

// TestServerHealthReplayParity runs a controller with a health log
// attached through a WAL incident and verifies the offline replay
// (what `cubefit-inspect health` performs) reconstructs the exact
// verdict timeline the live monitor produced.
func TestServerHealthReplayParity(t *testing.T) {
	fw := &flakyWriter{}
	var buf bytes.Buffer
	fake := clock.NewFake(time.Unix(0, 0))
	srv, _, ctrl := newEngineServer(t, WithWAL(obs.NewWAL(fw)),
		WithClock(fake), WithHealthConfig(healthTestConfig()),
		WithHealthLog(obs.NewHealthJSONL(&buf)))

	tick := func() { fake.Advance(time.Second); ctrl.HealthTick() }

	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.2}, nil); code != 201 {
		t.Fatalf("place = %d", code)
	}
	tick()
	tick()
	fw.trip()
	doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "load": 0.2}, nil)
	tick() // critical
	tick()

	live := ctrl.Health().Status()
	if live.State != telemetry.Critical || live.TransitionsTotal != 1 {
		t.Fatalf("live status = %+v", live)
	}

	recs, err := obs.ReadHealthJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := telemetry.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 4 || res.Final != telemetry.Critical {
		t.Fatalf("replay = %+v", res)
	}
	if !res.ParityOK() {
		t.Fatalf("replay/recorded mismatch:\nreplayed %+v\nrecorded %+v", res.Transitions, res.Recorded)
	}
	if len(res.Transitions) != len(live.Transitions) {
		t.Fatalf("replayed %d transitions, live has %d", len(res.Transitions), len(live.Transitions))
	}
	for i, tr := range res.Transitions {
		lt := live.Transitions[i]
		if tr.TNs != lt.TNs || tr.From != lt.From || tr.To != lt.To {
			t.Fatalf("transition %d: replay %+v, live %+v", i, tr, lt)
		}
	}
}
