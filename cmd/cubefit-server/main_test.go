package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cubefit/internal/api"
	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/telemetry"
	"cubefit/internal/workload"
)

// newTestController builds a bare controller for serve-level tests that
// only need the draining switch.
func newTestController(t *testing.T) *api.Controller {
	t.Helper()
	cf, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := api.NewController(cf, workload.DefaultLoadModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	return ctrl
}

func TestNewServerDefaults(t *testing.T) {
	srv, opts, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr != ":8080" || opts.cfg.Gamma != 2 || opts.cfg.K != 10 {
		t.Fatalf("defaults wrong: addr=%q opts=%+v", srv.Addr, opts)
	}
	if opts.pprof || opts.drain != 10*time.Second {
		t.Fatalf("operational defaults wrong: %+v", opts)
	}
	if srv.ReadTimeout == 0 || srv.WriteTimeout == 0 || srv.IdleTimeout == 0 || srv.ReadHeaderTimeout == 0 {
		t.Fatalf("timeouts not set: %+v", srv)
	}
	// The handler must serve the health endpoint.
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// Metrics are exposed; pprof is off by default.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != 200 {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	presp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode == 200 {
		t.Fatal("pprof served without -pprof")
	}
}

func TestNewServerFlagErrors(t *testing.T) {
	if _, _, err := newServer([]string{"-gamma", "zero"}); err == nil {
		t.Fatal("invalid flag accepted")
	}
	if _, _, err := newServer([]string{"-gamma", "0"}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, _, err := newServer([]string{"-k", "1"}); err == nil {
		t.Fatal("invalid K accepted")
	}
	if _, _, err := newServer([]string{"-slo-latency-p99", "0s"}); err == nil {
		t.Fatal("zero SLO objective accepted")
	}
	if _, _, err := newServer([]string{"-health-interval", "-1s"}); err == nil {
		t.Fatal("negative health interval accepted")
	}
}

// TestHealthFlags: the health endpoints are served out of the box, the
// SLO flags land in the effective rule configuration, and -health-log
// streams a replayable JSONL log through the run() teardown path.
func TestHealthFlags(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "health.jsonl")
	srv, opts, err := newServer([]string{
		"-slo-latency-p99", "250ms", "-health-interval", "100ms",
		"-redline", "0.1", "-health-log", logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	if body := getOK(t, ts, "/healthz"); !strings.Contains(body, "healthy") {
		t.Fatalf("/healthz body: %s", body)
	}
	if body := getOK(t, ts, "/readyz"); !strings.Contains(body, `"ready":true`) {
		t.Fatalf("/readyz body: %s", body)
	}
	var dbg struct {
		State  string `json:"state"`
		Config struct {
			Burn struct {
				ObjectiveNs int64 `json:"objectiveNs"`
			} `json:"burn"`
			Headroom struct {
				Floor float64 `json:"floor"`
			} `json:"headroom"`
			IntervalNs int64 `json:"intervalNs"`
		} `json:"config"`
	}
	if err := json.Unmarshal([]byte(getOK(t, ts, "/debug/health")), &dbg); err != nil {
		t.Fatal(err)
	}
	if got, want := time.Duration(dbg.Config.Burn.ObjectiveNs), 250*time.Millisecond; got != want {
		t.Fatalf("objective %v, want %v", got, want)
	}
	if got, want := time.Duration(dbg.Config.IntervalNs), 100*time.Millisecond; got != want {
		t.Fatalf("interval %v, want %v", got, want)
	}
	if dbg.Config.Headroom.Floor != 0.1 {
		t.Fatalf("headroom floor %v, want 0.1 (the -redline value)", dbg.Config.Headroom.Floor)
	}
	// Let the background loop take a few real ticks, then mirror run()'s
	// teardown and replay the log.
	time.Sleep(350 * time.Millisecond)
	ts.Close()
	if err := opts.ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := opts.healthSink.Err(); err != nil {
		t.Fatal(err)
	}
	if err := opts.healthLog.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadHealthJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := telemetry.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks == 0 {
		t.Fatal("health log holds no sample records")
	}
	if res.Config.Burn.Objective != 250*time.Millisecond {
		t.Fatalf("replayed objective %v", res.Config.Burn.Objective)
	}
	if !res.ParityOK() {
		t.Fatalf("replay parity failed: replayed %+v, recorded %+v", res.Transitions, res.Recorded)
	}
}

// TestTraceFlag: tracing is always on (pipeline endpoint + metrics live),
// because the queue and stall health rules watch its series, and -trace
// is no flag: -trace=false is refused rather than switching them off.
func TestTraceFlag(t *testing.T) {
	srv, opts, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer opts.ctrl.Close()
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	if body := getOK(t, ts, "/debug/pipeline"); !strings.Contains(body, `"tracing":true`) {
		t.Fatalf("/debug/pipeline body:\n%s", body)
	}
	if m := getOK(t, ts, "/metrics"); !strings.Contains(m, "cubefit_pipeline_queue_depth") {
		t.Fatalf("/metrics missing pipeline gauges:\n%s", m)
	}
	if _, _, err := newServer([]string{"-trace=false"}); err == nil {
		t.Fatal("-trace=false accepted")
	}
}

// TestSpansFlag: -spans streams every finished admission span to the
// JSONL file, flushed and closed by the run() teardown path.
func TestSpansFlag(t *testing.T) {
	spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
	srv, opts, err := newServer([]string{"-spans", spansPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	for i := 0; i < 8; i++ {
		body := strings.NewReader(fmt.Sprintf(`{"id":%d,"load":0.1}`, i))
		resp, err := ts.Client().Post(ts.URL+"/v1/tenants", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 201 {
			t.Fatalf("place %d: status %d", i, resp.StatusCode)
		}
	}
	ts.Close()
	// Mirror run()'s teardown: drain the pipeline, then surface the sink
	// state and close the file.
	if err := opts.ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := opts.spanSink.Err(); err != nil {
		t.Fatal(err)
	}
	if err := opts.spanLog.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpanJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 {
		t.Fatalf("exported %d spans, want 8", len(spans))
	}
	for _, s := range spans {
		if s.Status != 201 || s.TotalNs() <= 0 {
			t.Fatalf("unexpected span: %+v", s)
		}
	}
}

func TestNewServerCustomFlags(t *testing.T) {
	srv, opts, err := newServer([]string{"-addr", ":9999", "-gamma", "3", "-k", "5", "-pprof", "-drain", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr != ":9999" || opts.cfg.Gamma != 3 || opts.cfg.K != 5 {
		t.Fatalf("flags not applied: addr=%q opts=%+v", srv.Addr, opts)
	}
	if !opts.pprof || opts.drain != 2*time.Second {
		t.Fatalf("operational flags not applied: %+v", opts)
	}
	if !strings.HasPrefix(srv.Addr, ":") {
		t.Fatalf("addr %q", srv.Addr)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof status %d with -pprof", resp.StatusCode)
	}
}

// TestServeGracefulShutdown verifies that cancelling the run context
// drains an in-flight request to completion before serve returns.
func TestServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		time.Sleep(150 * time.Millisecond)
		w.Write([]byte("done"))
	})
	srv := &http.Server{Handler: mux}
	ctrl := newTestController(t)
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = serve(ctx, ln, srv, ctrl, 5*time.Second)
	}()

	url := fmt.Sprintf("http://%s/slow", ln.Addr())
	var status int
	var reqErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(url)
		if err != nil {
			reqErr = err
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
	}()

	// Trigger shutdown while the request is in flight.
	<-started
	cancel()
	wg.Wait()

	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
	if reqErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", reqErr)
	}
	if status != 200 {
		t.Fatalf("in-flight status %d", status)
	}
	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeListenerError: serve surfaces a Serve failure that is not a
// graceful close.
func TestServeListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // force Serve to fail immediately
	srv := &http.Server{Handler: http.NewServeMux()}
	if err := serve(context.Background(), ln, srv, newTestController(t), time.Second); err == nil {
		t.Fatal("closed listener did not surface an error")
	}
}

func TestRedLineFlag(t *testing.T) {
	srv, _, err := newServer([]string{"-redline", "0.2"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cubefit_headroom_redline 0.2") {
		t.Fatalf("/metrics missing configured red line:\n%s", buf.String())
	}
	// The headroom route is live from the start (empty placement).
	hr, err := ts.Client().Get(ts.URL + "/debug/headroom")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("/debug/headroom status %d", hr.StatusCode)
	}
}

// TestWALBootCycle is the operator-level kill-restart drill: a server
// admits traffic into its WAL, "dies" (pipeline closed), and a second
// server booted with the same -wal serves the exact surviving state and
// keeps appending to the same log.
func TestWALBootCycle(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	args := []string{"-wal", walPath, "-gamma", "2", "-k", "10"}

	srv1, opts1, err := newServer(args)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler)
	for i := 0; i < 20; i++ {
		body := strings.NewReader(fmt.Sprintf(`{"id":%d,"clients":%d}`, i, 1+i%15))
		resp, err := ts1.Client().Post(ts1.URL+"/v1/tenants", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 201 {
			t.Fatalf("place %d: status %d", i, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest("DELETE", ts1.URL+"/v1/tenants/5", nil)
	resp, err := ts1.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	snap1 := getOK(t, ts1, "/v1/placement")
	ts1.Close()
	if err := opts1.ctrl.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, opts2, err := newServer(args)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler)
	defer ts2.Close()
	defer opts2.ctrl.Close()
	if snap2 := getOK(t, ts2, "/v1/placement"); snap2 != snap1 {
		t.Fatalf("recovered placement differs:\nbefore: %s\nafter:  %s", snap1, snap2)
	}
	// The recovered server keeps admitting into the same log.
	presp, err := ts2.Client().Post(ts2.URL+"/v1/tenants", "application/json",
		strings.NewReader(`{"id":100,"load":0.25}`))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != 201 {
		t.Fatalf("post-recovery admission status %d", presp.StatusCode)
	}
	if vresp := getOK(t, ts2, "/v1/validate"); !strings.Contains(vresp, "true") {
		t.Fatalf("recovered placement invalid: %s", vresp)
	}
}

// TestWALBootCycleAfterUncommittedSuffix is the crash-then-restart-twice
// regression: a crash can leave the final record half written (a flush cut
// short, its admission never acked). The first boot must drop AND
// truncate it — if it only dropped it, its own appended records would
// land after the partial line and the second boot would read a corrupt
// record and refuse to start.
func TestWALBootCycleAfterUncommittedSuffix(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	args := []string{"-wal", walPath, "-gamma", "2", "-k", "10"}

	srv1, opts1, err := newServer(args)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler)
	for i := 0; i < 10; i++ {
		body := strings.NewReader(fmt.Sprintf(`{"id":%d,"load":0.2}`, i))
		resp, err := ts1.Client().Post(ts1.URL+"/v1/tenants", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 201 {
			t.Fatalf("place %d: status %d", i, resp.StatusCode)
		}
	}
	ts1.Close()
	if err := opts1.ctrl.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: the next admission's record reached the file
	// only in part.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"admit","tenant":777,"load":0.4,"clients":0,"hosts":[3`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 2 recovers (dropping the torn record) and keeps admitting.
	srv2, opts2, err := newServer(args)
	if err != nil {
		t.Fatalf("boot after crash: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler)
	resp, err := ts2.Client().Post(ts2.URL+"/v1/tenants", "application/json",
		strings.NewReader(`{"id":100,"load":0.25}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("post-recovery admission status %d", resp.StatusCode)
	}
	snap2 := getOK(t, ts2, "/v1/placement")
	ts2.Close()
	if err := opts2.ctrl.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 3 is the regression: the log must still replay cleanly after
	// boot 2 appended past the (now truncated) torn record.
	srv3, opts3, err := newServer(args)
	if err != nil {
		t.Fatalf("second restart refused the log: %v", err)
	}
	ts3 := httptest.NewServer(srv3.Handler)
	defer ts3.Close()
	defer opts3.ctrl.Close()
	if snap3 := getOK(t, ts3, "/v1/placement"); snap3 != snap2 {
		t.Fatalf("recovered placement differs:\nbefore: %s\nafter:  %s", snap2, snap3)
	}
	if strings.Contains(snap2, "\"id\":777") {
		t.Fatal("uncommitted admission resurrected")
	}
}

// TestWALBootRefusesBadLog: a server must not serve from a log that does
// not replay cleanly, nor from one in the decision-event format of
// earlier releases, nor from one whose history may sit in segment files
// of the retired sharded format.
func TestWALBootRefusesBadLog(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	corrupt := obs.WALHeader + `{"op":"depart","tenant":1}` + "\nnot json\n" + `{"op":"depart","tenant":2}` + "\n"
	if err := os.WriteFile(walPath, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := newServer([]string{"-wal", walPath}); err == nil {
		t.Fatal("server booted from a corrupt log")
	}

	// A log of the old format: each line a JSON decision event. Boot names
	// the format it expects and leaves the log as it was: no migration.
	oldPath := filepath.Join(t.TempDir(), "old.jsonl")
	old := `{"seq":1,"time":"2026-01-01T00:00:00Z","engine":"cubefit","kind":"attempt","tenant":1,"replica":-1,"server":-1,"slot":-1,"class":-1,"counter":-1,"size":0.3}` + "\n" +
		`{"seq":2,"time":"2026-01-01T00:00:00Z","engine":"cubefit","kind":"admit","tenant":1,"replica":-1,"server":-1,"slot":-1,"class":-1,"counter":-1,"path":"regular"}` + "\n"
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := newServer([]string{"-wal", oldPath})
	if err == nil || !strings.Contains(err.Error(), "cubefit-ops version 1") {
		t.Fatalf("boot from an old-format log: %v, want an error naming the cubefit-ops version 1 format", err)
	}
	if data, rerr := os.ReadFile(oldPath); rerr != nil || string(data) != old {
		t.Fatalf("refused boot changed the old-format log (%v)", rerr)
	}

	// Leftover segments and no single-file log at all: recovery alone
	// would report a fresh, empty fleet.
	segWAL := filepath.Join(t.TempDir(), "wal.jsonl")
	for _, seg := range []string{".seg0", ".seg1"} {
		if err := os.WriteFile(segWAL+seg, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = newServer([]string{"-wal", segWAL})
	if err == nil {
		t.Fatal("server booted beside leftover sharded-log segment files")
	}
	for _, seg := range []string{".seg0", ".seg1"} {
		if !strings.Contains(err.Error(), segWAL+seg) {
			t.Errorf("boot error does not name %s: %v", segWAL+seg, err)
		}
	}
	if _, serr := os.Stat(segWAL); !errors.Is(serr, os.ErrNotExist) {
		t.Errorf("refused boot created the log file (stat err %v)", serr)
	}
}

// getOK fetches path from ts and returns the body, requiring status 200.
func getOK(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, b)
	}
	return string(b)
}
