package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// newEngineServer builds a CubeFit-backed controller (optionally with a
// WAL) and serves it, returning the engine for state inspection. Cleanup
// closes the HTTP server before draining the controller pipeline.
func newEngineServer(t *testing.T, opts ...Option) (*httptest.Server, *core.CubeFit, *Controller) {
	t.Helper()
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return serveEngine(t, cf, opts...)
}

// serveEngine serves a controller around cf, closing the HTTP server
// before draining the controller pipeline at cleanup.
func serveEngine(t *testing.T, cf *core.CubeFit, opts ...Option) (*httptest.Server, *core.CubeFit, *Controller) {
	t.Helper()
	ctrl, err := NewController(cf, workload.DefaultLoadModel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	srv := httptest.NewServer(ctrl.Handler())
	t.Cleanup(srv.Close)
	return srv, cf, ctrl
}

// getBody fetches url and returns the raw response body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// TestBatchSerialParity is the pipeline's correctness bar: admitting N
// tenants in one batch must leave state byte-identical to N serial single
// requests — same placement snapshot, same stats — across batch sizes and
// workload seeds.
func TestBatchSerialParity(t *testing.T) {
	for _, size := range []int{1, 2, 7, 33, 128} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n%d_seed%d", size, seed), func(t *testing.T) {
				src, err := workload.NewClientSource(workload.DefaultLoadModel(),
					workload.Uniform{Lo: 1, Hi: 15}, seed)
				if err != nil {
					t.Fatal(err)
				}
				tenants := workload.Take(src, size)

				serialSrv, serialCF, _ := newEngineServer(t)
				for _, tn := range tenants {
					code := doJSON(t, "POST", serialSrv.URL+"/v1/tenants",
						map[string]any{"id": int(tn.ID), "clients": tn.Clients}, nil)
					if code != http.StatusCreated {
						t.Fatalf("serial place %d: %d", tn.ID, code)
					}
				}

				batchSrv, batchCF, _ := newEngineServer(t)
				items := make([]map[string]any, len(tenants))
				for i, tn := range tenants {
					items[i] = map[string]any{"id": int(tn.ID), "clients": tn.Clients}
				}
				var resp batchResponse
				code := doJSON(t, "POST", batchSrv.URL+"/v1/tenants:batch",
					map[string]any{"tenants": items}, &resp)
				if code != http.StatusOK {
					t.Fatalf("batch status %d", code)
				}
				if resp.Placed != size || resp.Failed != 0 {
					t.Fatalf("batch placed %d failed %d, want %d/0", resp.Placed, resp.Failed, size)
				}

				serialSnap := getBody(t, serialSrv.URL+"/v1/placement")
				batchSnap := getBody(t, batchSrv.URL+"/v1/placement")
				if !bytes.Equal(serialSnap, batchSnap) {
					t.Fatalf("placement snapshots differ:\nserial: %s\nbatch:  %s", serialSnap, batchSnap)
				}
				if !bytes.Equal(getBody(t, serialSrv.URL+"/v1/stats"), getBody(t, batchSrv.URL+"/v1/stats")) {
					t.Fatal("stats differ")
				}
				if serialCF.Stats() != batchCF.Stats() {
					t.Fatalf("engine stats differ: %+v vs %+v", serialCF.Stats(), batchCF.Stats())
				}
				// Per-item servers must match the serial placements.
				for i, tn := range tenants {
					want := serialCF.Placement().TenantHosts(tn.ID)
					if !reflect.DeepEqual(resp.Results[i].Servers, want) {
						t.Fatalf("item %d servers %v, want %v", i, resp.Results[i].Servers, want)
					}
				}
			})
		}
	}
}

// TestBatchPartialFailure exercises the per-item status contract: invalid
// items fail with their single-endpoint status while the rest of the
// batch lands.
func TestBatchPartialFailure(t *testing.T) {
	srv, cf, _ := newEngineServer(t)
	var resp batchResponse
	code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{
		"tenants": []map[string]any{
			{"id": 1, "load": 0.3},
			{"id": 2, "load": -0.5},   // malformed: 400
			{"id": 3, "clients": 500}, // derived load > 1: 422
			{"id": 1, "load": 0.2},    // duplicate of item 0: 409
			{"id": 4, "clients": 8},   // fine
			{"id": 5},                 // neither load nor clients: 400
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	want := []int{201, 400, 422, 409, 201, 400}
	if resp.Placed != 2 || resp.Failed != 4 {
		t.Fatalf("placed %d failed %d, want 2/4", resp.Placed, resp.Failed)
	}
	for i, st := range want {
		if resp.Results[i].Status != st {
			t.Fatalf("item %d status %d (%s), want %d", i, resp.Results[i].Status, resp.Results[i].Error, st)
		}
	}
	for i := range want {
		if want[i] != 201 && resp.Results[i].Error == "" {
			t.Fatalf("item %d: failure without error message", i)
		}
	}
	// Every result echoes the submitted tenant id, including failures
	// that never reached the engine (the 422 derived-load refusal).
	for i, id := range []int{1, 2, 3, 1, 4, 5} {
		if resp.Results[i].ID != id {
			t.Fatalf("item %d echoed id %d, want %d", i, resp.Results[i].ID, id)
		}
	}
	// Partial failure: the two successes are really admitted and the
	// placement still validates.
	if n := cf.Placement().NumTenants(); n != 2 {
		t.Fatalf("admitted %d tenants, want 2", n)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRejectsMalformedAndOversized(t *testing.T) {
	srv, _, _ := newEngineServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{"tenants": []any{}}, nil); code != 400 {
		t.Fatalf("empty batch status %d", code)
	}
	big := make([]map[string]any, maxBatchTenants+1)
	for i := range big {
		big[i] = map[string]any{"id": i, "load": 0.1}
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{"tenants": big}, nil); code != 400 {
		t.Fatalf("oversized batch status %d", code)
	}
}

// TestDerivedLoadValidated is the regression test for the unclamped
// model-derived load: a client count mapping above 1 must be refused with
// 422, not injected into the engine.
func TestDerivedLoadValidated(t *testing.T) {
	srv, cf, _ := newEngineServer(t)
	var errResp errorResponse
	code := doJSON(t, "POST", srv.URL+"/v1/tenants",
		map[string]any{"id": 1, "clients": 500}, &errResp)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (error %q)", code, errResp.Error)
	}
	if errResp.Error == "" {
		t.Fatal("422 without a clear error message")
	}
	if n := cf.Placement().NumTenants(); n != 0 {
		t.Fatalf("invalid admission perturbed state: %d tenants", n)
	}
	// The boundary case still places: MaxClientsPerServer derives exactly 1.
	code = doJSON(t, "POST", srv.URL+"/v1/tenants",
		map[string]any{"id": 2, "clients": workload.MaxClientsPerServer}, nil)
	if code != http.StatusCreated {
		t.Fatalf("boundary clients status %d, want 201", code)
	}
}

// TestWALKillRestart proves the recovery contract end to end: a server
// that dies after acking admissions (singles, batches, departures) is
// rebuilt from its WAL into the exact acked state — snapshot, stats, and
// headroom report all byte-identical.
func TestWALKillRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	wal, err := obs.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, cf, ctrl := newEngineServer(t, WithWAL(wal))

	for i := 0; i < 10; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 1 + i%15}, nil); code != 201 {
			t.Fatalf("place %d failed", i)
		}
	}
	items := make([]map[string]any, 20)
	for i := range items {
		items[i] = map[string]any{"id": 100 + i, "load": 0.05 + float64(i%9)*0.04}
	}
	var bresp batchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
		map[string]any{"tenants": items}, &bresp); code != 200 || bresp.Failed != 0 {
		t.Fatalf("batch: code %d failed %d", code, bresp.Failed)
	}
	if code := doDelete(t, srv.URL+"/v1/tenants/3"); code != http.StatusNoContent {
		t.Fatalf("delete status %d", code)
	}

	ackedSnap := trace.Capture(cf.Placement())
	ackedStats := cf.Stats()

	// Kill: drain the pipeline and final-commit the WAL, then recover.
	srv.Close()
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	rebuilt, rstats, err := recovery.FromFile(path, cf.Config())
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Admitted != 30 || rstats.Departed != 1 {
		t.Fatalf("recovery stats %+v", rstats)
	}
	if got := trace.Capture(rebuilt.Placement()); !reflect.DeepEqual(got, ackedSnap) {
		t.Fatal("recovered snapshot differs from acked snapshot")
	}
	if rebuilt.Stats() != ackedStats {
		t.Fatalf("recovered Stats %+v, acked %+v", rebuilt.Stats(), ackedStats)
	}
}

// TestWALConcurrentTraffic races concurrent single and batch admissions
// and departures against the placer and kills the server (subtest boot),
// then boots it again from the same log as `cubefit-server -wal` does and
// races a second round (subtest reboot). After each round, replaying the
// log must reproduce the acked snapshot: the placer's group commits and
// the departures' syncs must reach the log in the order they reached the
// engine. And the recovered fleet must be exactly the tenants held at the
// round's start, plus every acked admission, minus every acked departure.
func TestWALConcurrentTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	live := map[int]bool{} // acked admissions minus acked departures
	var admits, departs int
	for round, name := range []string{"boot", "reboot"} {
		ok := t.Run(name, func(t *testing.T) {
			srv, cf, ctrl := bootFromLog(t, path)
			if n := cf.Placement().NumTenants(); n != len(live) {
				t.Fatalf("round %d: booted with %d tenants, want %d", round, n, len(live))
			}
			if round == 0 {
				for i := 0; i < 50; i++ {
					if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
						map[string]any{"id": i, "load": 0.05}, nil); code != 201 {
						t.Fatalf("seed place %d failed", i)
					}
					live[i] = true
					admits++
				}
			}
			// Depart the 50 lowest IDs held at the round's start.
			held := make([]int, 0, len(live))
			for id := range live {
				held = append(held, id)
			}
			sort.Ints(held)
			admitted, departed := walTraffic(t, srv.URL, 1000+10000*round, held[:50])
			if t.Failed() {
				return
			}
			for _, id := range admitted {
				live[id] = true
			}
			for _, id := range departed {
				delete(live, id)
			}
			admits += len(admitted)
			departs += len(departed)

			srv.Close()
			if err := ctrl.Close(); err != nil {
				t.Fatal(err)
			}
			ackedSnap := trace.Capture(cf.Placement())
			rebuilt, rstats, err := recovery.FromFile(path, cf.Config())
			if err != nil {
				t.Fatal(err)
			}
			if rstats.Admitted != admits || rstats.Departed != departs {
				t.Fatalf("round %d: recovery stats %+v, want %d admitted and %d departed", round, rstats, admits, departs)
			}
			if got := trace.Capture(rebuilt.Placement()); !reflect.DeepEqual(got, ackedSnap) {
				t.Fatalf("round %d: recovered snapshot differs from acked snapshot", round)
			}
			p := rebuilt.Placement()
			if p.NumTenants() != len(live) {
				t.Fatalf("round %d: recovered %d tenants, want %d", round, p.NumTenants(), len(live))
			}
			for id := range live {
				if _, ok := p.Tenant(packing.TenantID(id)); !ok {
					t.Fatalf("round %d: acked tenant %d is not in the recovered fleet", round, id)
				}
			}
		})
		if !ok {
			return
		}
	}
}

// bootFromLog boots a controller from the log at path as `cubefit-server
// -wal` does: recover the engine, cut a torn final record, reopen the log
// for append, and serve it.
func bootFromLog(t *testing.T, path string) (*httptest.Server, *core.CubeFit, *Controller) {
	t.Helper()
	cf, st, err := recovery.FromFile(path, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.TruncateWAL(path, st.CommittedBytes); err != nil {
		t.Fatal(err)
	}
	wal, err := obs.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	return serveEngine(t, cf, WithWAL(wal))
}

// walTraffic races one round of traffic against the server at url: four
// clients admit 50 singles each, two clients admit five 16-tenant batches
// each, and two clients split the given departures. New tenant IDs start
// at base. It returns the acked admissions and departures.
func walTraffic(t *testing.T, url string, base int, departures []int) (admitted, departed []int) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	ack := func(list *[]int, ids ...int) {
		mu.Lock()
		*list = append(*list, ids...)
		mu.Unlock()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := base + g*100 + i
				code, err := tryJSON("POST", url+"/v1/tenants",
					map[string]any{"id": id, "load": 0.02 + float64(id%7)*0.03}, nil)
				if err != nil || code != 201 {
					t.Errorf("concurrent place %d: %d %v", id, code, err)
					return
				}
				ack(&admitted, id)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 5; b++ {
				items := make([]map[string]any, 16)
				for j := range items {
					id := base + 5000 + g*1000 + b*16 + j
					items[j] = map[string]any{"id": id, "clients": 1 + id%15}
				}
				var resp batchResponse
				code, err := tryJSON("POST", url+"/v1/tenants:batch", map[string]any{"tenants": items}, &resp)
				if err != nil || code != 200 || resp.Placed != len(items) {
					t.Errorf("concurrent batch %d/%d: %d %v %+v", g, b, code, err, resp)
					return
				}
				for _, r := range resp.Results {
					ack(&admitted, r.ID)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(departures); i += 2 {
				id := departures[i]
				code, err := tryJSON("DELETE", url+"/v1/tenants/"+strconv.Itoa(id), nil, nil)
				if err != nil || code != http.StatusNoContent {
					t.Errorf("concurrent delete %d: %d %v", id, code, err)
					return
				}
				ack(&departed, id)
			}
		}(g)
	}
	wg.Wait()
	return admitted, departed
}

func doDelete(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest("DELETE", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// flakyWriter fails every write once tripped.
type flakyWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	tripped bool
}

func (f *flakyWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tripped {
		return 0, errors.New("disk full")
	}
	return f.buf.Write(p)
}

func (f *flakyWriter) trip() {
	f.mu.Lock()
	f.tripped = true
	f.mu.Unlock()
}

// TestWALFailClosed is the sticky-error contract: once the WAL cannot
// commit, admissions and departures fail with 503 — they are never acked
// unlogged — while read endpoints keep serving.
func TestWALFailClosed(t *testing.T) {
	fw := &flakyWriter{}
	srv, cf, _ := newEngineServer(t, WithWAL(obs.NewWAL(fw)))

	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != 201 {
		t.Fatalf("healthy admission status %d", code)
	}
	fw.trip()
	var errResp errorResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "load": 0.3}, &errResp); code != 503 {
		t.Fatalf("post-trip admission status %d, want 503", code)
	}
	// Sticky: still failing, including batches and departures.
	var bresp batchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
		map[string]any{"tenants": []map[string]any{{"id": 3, "load": 0.2}}}, &bresp); code != 200 {
		t.Fatalf("batch transport status %d", code)
	} else if bresp.Results[0].Status != 503 {
		t.Fatalf("batch item status %d, want 503", bresp.Results[0].Status)
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/tenants/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("delete status %d, want 503", resp.StatusCode)
	}
	// Only the committed admission is in memory; reads still serve.
	if n := cf.Placement().NumTenants(); n != 1 {
		t.Fatalf("tenants = %d, want 1 (unlogged admissions must not land)", n)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", nil, nil); code != 200 {
		t.Fatalf("stats status %d", code)
	}
}

// TestRemoveTenantWALSyncFailureLeavesTenantPlaced: a departure whose
// group commit fails answers 503 and leaves the engine untouched — the
// tenant stays on exactly the hosts it had, with its load and clients —
// so reads never serve unacked state, a restart (which replays the log
// without the depart) agrees, and the sticky error refuses the next
// admission. Tenant 0 of walController's first batch is one that a
// re-admission after the failed sync would move to other hosts.
func TestRemoveTenantWALSyncFailureLeavesTenantPlaced(t *testing.T) {
	sw := &syncSwitch{}
	c, src := walController(t, sw)
	batch := workload.Take(src, 64)
	for i, st := range placeTenants(c, batch...) {
		if st != http.StatusCreated {
			t.Fatalf("batch item %d: status %d", i, st)
		}
	}
	p := c.alg.Placement()
	id := batch[0].ID
	before, hosts := batch[0], p.TenantHosts(id)
	sw.fail = true
	if code := deleteTenant(c, id); code != http.StatusServiceUnavailable {
		t.Fatalf("delete status %d, want 503", code)
	}
	tn, exists := p.Tenant(id)
	if !exists {
		t.Fatal("tenant removed although the departure was answered 503")
	}
	if tn != before {
		t.Fatalf("tenant after the 503 departure %+v, want %+v", tn, before)
	}
	if got := p.TenantHosts(id); !reflect.DeepEqual(got, hosts) {
		t.Fatalf("tenant moved from servers %v to %v by a departure answered 503", hosts, got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := placeTenants(c, src.Next()); st[0] != http.StatusServiceUnavailable {
		t.Fatalf("admission after the failed sync: status %d, want 503", st[0])
	}
}

// countingLog is a log file held in memory that counts its syncs.
type countingLog struct {
	bytes.Buffer
	syncs int
}

func (l *countingLog) Sync() error {
	l.syncs++
	return nil
}

// TestCoalescedDeparturesMatchSerial drives placeJobs with mixed job lists
// on one controller and sends the same requests one at a time through the
// handler of a second: single admissions and a 64-tenant batch, a
// departure of a tenant admitted earlier in the list, two departures of
// one tenant, a departure of an unknown id and a re-admission of a
// departed id. Both must answer the same statuses and end with the same
// placement and the same log bytes. The coalesced controller syncs once
// per group: once for two admissions followed by two departures, and not
// at all for a group whose only item answers 404.
func TestCoalescedDeparturesMatchSerial(t *testing.T) {
	// A step is one request: the admission of admit (a batch when it
	// holds several), or else the departure of depart.
	type step struct {
		admit  []placeRequest
		depart int
	}
	admit := func(reqs ...placeRequest) step { return step{admit: reqs} }
	depart := func(id int) step { return step{depart: id} }
	batch := make([]placeRequest, 64)
	mixedWant := []int{201, 201}
	for i := range batch {
		batch[i] = placeRequest{ID: 100 + i, Clients: 1 + i%15}
		mixedWant = append(mixedWant, 201)
	}
	// The departed ids 1 and 120 are admitted again, and 120's second
	// departure and 999's answer 404.
	mixedWant = append(mixedWant, 204, 204, 404, 404, 201, 204, 201)
	calls := []struct {
		steps  []step
		want   []int // every item's status, in order
		groups int   // the syncs the coalesced call makes
	}{{
		steps: []step{
			admit(placeRequest{ID: 1, Load: 0.3}), admit(placeRequest{ID: 2, Clients: 8}), admit(batch...),
			depart(1), depart(120), depart(120), depart(999),
			admit(placeRequest{ID: 1, Load: 0.45}), depart(2), admit(placeRequest{ID: 120, Clients: 3}),
		},
		want:   mixedWant,
		groups: 3,
	}, {
		steps:  []step{admit(placeRequest{ID: 500, Load: 0.2}), admit(placeRequest{ID: 501, Clients: 4}), depart(500), depart(501)},
		want:   []int{201, 201, 204, 204},
		groups: 1,
	}, {
		steps: []step{depart(999)}, want: []int{404},
	}}

	newCtrl := func(log *countingLog) *Controller {
		cf, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(cf, workload.DefaultLoadModel(), WithWAL(obs.NewWAL(log)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	serve := func(c *Controller, method, path string, body any) *httptest.ResponseRecorder {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
		return rec
	}
	var coalescedLog, serialLog countingLog
	coalesced, serial := newCtrl(&coalescedLog), newCtrl(&serialLog)
	for n, call := range calls {
		jobs := make([]*admitJob, len(call.steps))
		var serialStatus []int
		for i, st := range call.steps {
			jobs[i] = &admitJob{}
			switch {
			case st.admit == nil:
				jobs[i].items = []admitItem{{tenant: packing.Tenant{ID: packing.TenantID(st.depart)}, depart: true}}
				serialStatus = append(serialStatus, serve(serial, "DELETE", "/v1/tenants/"+strconv.Itoa(st.depart), nil).Code)
			case len(st.admit) == 1:
				serialStatus = append(serialStatus, serve(serial, "POST", "/v1/tenants", st.admit[0]).Code)
			default:
				var resp batchResponse
				rec := serve(serial, "POST", "/v1/tenants:batch", batchRequest{Tenants: st.admit})
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				for _, r := range resp.Results {
					serialStatus = append(serialStatus, r.Status)
				}
			}
			for _, pr := range st.admit {
				tn, err := coalesced.resolve(pr)
				if err != nil {
					t.Fatal(err)
				}
				jobs[i].items = append(jobs[i].items, admitItem{tenant: tn})
			}
		}
		syncs := coalescedLog.syncs
		coalesced.placeJobs(jobs)
		var status []int
		for _, job := range jobs {
			for _, it := range job.items {
				status = append(status, it.status)
			}
		}
		if !reflect.DeepEqual(status, call.want) || !reflect.DeepEqual(serialStatus, call.want) {
			t.Fatalf("call %d: coalesced statuses %v, serial %v, want %v", n, status, serialStatus, call.want)
		}
		if got := coalescedLog.syncs - syncs; got != call.groups {
			t.Fatalf("call %d: %d syncs, want %d", n, got, call.groups)
		}
	}
	if a, b := serve(coalesced, "GET", "/v1/placement", nil).Body.String(), serve(serial, "GET", "/v1/placement", nil).Body.String(); a != b {
		t.Fatalf("placements differ:\ncoalesced: %s\nserial:    %s", a, b)
	}
	if err := errors.Join(coalesced.Close(), serial.Close()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coalescedLog.Bytes(), serialLog.Bytes()) {
		t.Fatalf("logs differ:\ncoalesced:\n%s\nserial:\n%s", coalescedLog.Bytes(), serialLog.Bytes())
	}
}

// noDepart is recordable but cannot remove tenants: attaching a WAL to it
// must be refused at construction, because the commit-failure rollback
// depends on Remove.
type noDepart struct{ cf *core.CubeFit }

func (n noDepart) Name() string                  { return "no-depart" }
func (n noDepart) Place(t packing.Tenant) error  { return n.cf.Place(t) }
func (n noDepart) Placement() *packing.Placement { return n.cf.Placement() }
func (n noDepart) SetRecorder(r obs.Recorder)    { n.cf.SetRecorder(r) }

func TestWALRequiresRemover(t *testing.T) {
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = NewController(noDepart{cf}, workload.DefaultLoadModel(), WithWAL(obs.NewWAL(&buf)))
	if err == nil {
		t.Fatal("WAL attached to an algorithm without Remove")
	}
}

// TestAdmissionsDuringDrill asserts the lock fix: exhaustive drills and
// repacks run off a snapshot clone, so admissions complete while they are
// in flight instead of queueing behind the read lock.
func TestAdmissionsDuringDrill(t *testing.T) {
	srv, _, _ := newEngineServer(t)
	for i := 0; i < 200; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 1 + i%15}, nil); code != 201 {
			t.Fatalf("seed place %d failed", i)
		}
	}
	var wg sync.WaitGroup
	var admitted, drilled atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var dresp drillResponse
				if code := doJSON(t, "POST", srv.URL+"/v1/drill",
					map[string]any{"failures": 1}, &dresp); code != 200 {
					t.Errorf("drill: %d", code)
					return
				}
				drilled.Add(1)
				if code := doJSON(t, "POST", srv.URL+"/v1/repack", nil, nil); code != 200 {
					t.Errorf("repack: %d", code)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := 1000 + g*100 + i
				if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
					map[string]any{"id": id, "load": 0.1}, nil); code != 201 {
					t.Errorf("concurrent place %d: %d", id, code)
					return
				}
				admitted.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if admitted.Load() != 200 || drilled.Load() != 40 {
		t.Fatalf("admitted %d drilled %d", admitted.Load(), drilled.Load())
	}
}

// TestControllerClose verifies shutdown: queued admissions drain, later
// ones are refused, and Close is idempotent.
func TestControllerClose(t *testing.T) {
	srv, _, ctrl := newEngineServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != 201 {
		t.Fatal("pre-close admission failed")
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	var errResp errorResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "load": 0.3}, &errResp); code != 503 {
		t.Fatalf("post-close admission status %d, want 503", code)
	}
	// A batch composed entirely of pre-rejected items must still resolve
	// (regression guard: such jobs bypass the engine but not the future).
	var bresp batchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
		map[string]any{"tenants": []map[string]any{{"id": -1, "load": 0.2}}}, &bresp); code != 503 && code != 200 {
		t.Fatalf("post-close batch status %d", code)
	}
}

// TestSingleConcurrentAdmissions hammers the single endpoint from many
// goroutines: every admission must land exactly once and the final state
// must validate (raced in CI).
func TestSingleConcurrentAdmissions(t *testing.T) {
	srv, cf, _ := newEngineServer(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := g*per + i
				if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
					map[string]any{"id": id, "clients": 1 + id%15}, nil); code != 201 {
					t.Errorf("place %d: %d", id, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := cf.Placement().NumTenants(); n != workers*per {
		t.Fatalf("tenants = %d, want %d", n, workers*per)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}
