// Command cubefit-load is a closed-loop admission load harness: a fixed
// pool of workers drives the service admission path as fast as responses
// come back — each worker issues a request, waits for the ack, and
// immediately issues the next — so the measured throughput is the
// sustained, acknowledged rate rather than an open-loop send rate.
//
// Usage:
//
//	cubefit-load [-mode both] [-workers 4] [-ops 30000] [-batch 64]
//	             [-gamma 2] [-k 10] [-wal path] [-url http://host:8080]
//	             [-o report.json] [-minspeedup 0] [-trace=false] [-spans path] [-health=false]
//
// By default the harness is self-contained: it builds the same controller
// cubefit-server serves, exposes it on a loopback listener, and drives it
// over real HTTP with connection reuse — so the single-vs-batch comparison
// includes the per-request transport and handler costs that batching
// amortizes, exactly as a deployment would see them. With -url it instead
// drives an already-running server. With -wal the self-hosted controller
// group-commits every admission to a write-ahead log, measuring the
// durable path: each mode boots from the log as `cubefit-server -wal`
// does (recover, truncate a torn tail, reopen for append), tenant IDs are
// salted so they cannot collide with the tenants the log already holds,
// and after the last mode the log is recovered once more, failing the run
// unless it holds exactly the tenants it held at start plus every
// admission the run acked.
//
// Modes: "single" admits one tenant per POST /v1/tenants request, "batch"
// admits -batch tenants per POST /v1/tenants:batch request, and "both"
// runs single then batch on fresh controllers and reports the per-tenant
// speedup. -minspeedup N fails the run (exit 2) when batch admission is
// not at least N× the single-request rate, so CI can gate the pipeline's
// reason to exist.
//
// -o writes a JSON report in the cubefit-bench format — per-mode ns/op
// (mean wall time per admitted tenant) plus P50/P99 request latency — so
// `cubefit-bench -compare old.json new.json` diffs load-harness runs
// exactly like microbenchmarks. When the target traces its admission
// pipeline (the default for the in-process controller), the report also
// carries server-side stage columns (queue/place/commit P50/P99 from
// GET /debug/pipeline), so -compare gates stage regressions too.
//
// -trace=false disables span tracing on the in-process controller, which
// CI uses to measure tracing overhead (tracing-off vs tracing-on ns/op);
// -spans captures the admission span log (JSONL) for
// `cubefit-inspect latency`.
//
// When the target serves GET /debug/health (the in-process controller
// runs the health sampling loop during the run), each mode's report
// folds the verdict in: the final health state with the number of ticks
// it rests on, any state transitions the load provoked (burn-rate breach,
// queue saturation), and health-ticks and health-transitions columns in
// the -o report. A run that ends before the first tick reports "no data"
// rather than a verdict.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubefit/internal/api"
	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/stats"
	"cubefit/internal/workload"
)

// ErrGate is returned when -minspeedup is not met; main translates it to
// exit code 2 so CI can tell a gate failure from an operational error.
var ErrGate = errors.New("batch speedup below gate")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "cubefit-load:", err)
	if errors.Is(err, ErrGate) {
		os.Exit(2)
	}
	os.Exit(1)
}

type config struct {
	mode       string
	workers    int
	ops        int
	batch      int
	gamma, k   int
	wal        string
	url        string
	out        string
	minSpeedup float64
	trace      bool
	spans      string
	health     bool
	// spanSink is shared across modes so -spans captures one contiguous
	// log per invocation.
	spanSink *obs.SpanJSONL
}

// result is one mode's measurement.
type result struct {
	name      string
	tenants   int           // admitted tenants
	firstID   int64         // they are IDs firstID..firstID+tenants-1
	requests  int           // HTTP round trips
	elapsed   time.Duration // wall clock, first send to last ack
	latencies []float64     // per-request ns
	// stages holds server-side per-stage percentiles (queue/place/commit
	// P50/P99 in ns) pulled from GET /debug/pipeline; empty when the
	// target does not trace.
	stages map[string]float64
	// health is the target's verdict after the run, pulled from
	// GET /debug/health; nil when the target does not serve it.
	health *healthSummary
}

// healthSummary is the slice of GET /debug/health the harness folds into
// its report: a run that degraded the server (burn-rate breach, queue
// saturation, headroom erosion) surfaces next to the numbers that caused
// it.
type healthSummary struct {
	State string `json:"state"`
	// Ticks counts the sample-evaluate cycles the verdict rests on; 0
	// means the run ended before the first one.
	Ticks            uint64 `json:"ticks"`
	TransitionsTotal uint64 `json:"transitionsTotal"`
	Transitions      []struct {
		TNs   int64    `json:"tNs"`
		From  string   `json:"from"`
		To    string   `json:"to"`
		Rules []string `json:"rules"`
	} `json:"transitions"`
}

// verdict is the health line's text: the state with the ticks and
// transitions behind it, or "no data" when no tick was sampled.
func (h *healthSummary) verdict() string {
	if h.Ticks == 0 {
		return "no data (0 ticks)"
	}
	return fmt.Sprintf("%s after %d ticks, %d transitions", h.State, h.Ticks, h.TransitionsTotal)
}

func (r result) perTenantNs() float64 {
	return float64(r.elapsed.Nanoseconds()) / float64(r.tenants)
}

func (r result) throughput() float64 {
	return float64(r.tenants) / r.elapsed.Seconds()
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("cubefit-load", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.mode, "mode", "both", "single, batch, or both")
	fs.IntVar(&cfg.workers, "workers", 4, "closed-loop workers")
	fs.IntVar(&cfg.ops, "ops", 30000, "tenants to admit per mode")
	fs.IntVar(&cfg.batch, "batch", 64, "tenants per batch request")
	fs.IntVar(&cfg.gamma, "gamma", 2, "replicas per tenant")
	fs.IntVar(&cfg.k, "k", 10, "CubeFit classes")
	fs.StringVar(&cfg.wal, "wal", "", "write-ahead log path for the in-process controller (measures the durable path)")
	fs.StringVar(&cfg.url, "url", "", "drive a live server at this base URL instead of in process")
	fs.StringVar(&cfg.out, "o", "", "write a cubefit-bench JSON report here")
	fs.Float64Var(&cfg.minSpeedup, "minspeedup", 0, "fail unless batch is at least this many times faster per tenant (mode both)")
	fs.BoolVar(&cfg.trace, "trace", true, "enable pipeline span tracing on the in-process controller")
	fs.StringVar(&cfg.spans, "spans", "", "export admission spans (JSONL) from the in-process controller here")
	fs.BoolVar(&cfg.health, "health", true, "run the health sampling loop during the run and fold the verdict into the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch cfg.mode {
	case "single", "batch", "both":
	default:
		return fmt.Errorf("unknown -mode %q", cfg.mode)
	}
	if cfg.workers < 1 || cfg.ops < 1 || cfg.batch < 1 {
		return errors.New("-workers, -ops and -batch must be positive")
	}
	if cfg.minSpeedup > 0 && cfg.mode != "both" {
		return errors.New("-minspeedup requires -mode both")
	}
	if cfg.url != "" && (!cfg.trace || cfg.spans != "" || cfg.wal != "") {
		return errors.New("-trace, -spans and -wal configure the in-process controller; they cannot apply to -url targets")
	}
	if cfg.spans != "" && !cfg.trace {
		return errors.New("-spans requires tracing (-trace)")
	}
	if cfg.spans != "" {
		f, err := os.Create(cfg.spans)
		if err != nil {
			return err
		}
		sink := obs.NewSpanJSONL(f)
		cfg.spanSink = sink
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		defer func() {
			if serr := sink.Err(); serr != nil && err == nil {
				err = fmt.Errorf("span export: %w", serr)
			}
		}()
	}

	// The tenants the log holds before the run, which the recovered fleet
	// must still hold at its end.
	var held []packing.Tenant
	if cfg.wal != "" {
		cf, _, err := recovery.FromFile(cfg.wal, cfg.engineConfig())
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		held = cf.Placement().Tenants()
	}
	var results []result
	if cfg.mode == "single" || cfg.mode == "both" {
		r, err := runMode(cfg, false)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	if cfg.mode == "batch" || cfg.mode == "both" {
		r, err := runMode(cfg, true)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	if cfg.wal != "" {
		if err := checkRecovered(cfg, held, results); err != nil {
			return err
		}
	}
	for _, r := range results {
		p50, p99 := latencyPercentiles(r.latencies)
		fmt.Fprintf(stdout, "%-12s %8d tenants %8d requests  %10.0f tenants/s  p50 %8s  p99 %8s\n",
			r.name, r.tenants, r.requests, r.throughput(),
			time.Duration(p50), time.Duration(p99))
		if len(r.stages) > 0 {
			fmt.Fprintf(stdout, "  stages:")
			for _, st := range stageNames {
				fmt.Fprintf(stdout, "  %s p50 %s p99 %s", st,
					time.Duration(r.stages[st+"-p50-ns"]),
					time.Duration(r.stages[st+"-p99-ns"]))
			}
			fmt.Fprintln(stdout)
		}
		if r.health != nil {
			fmt.Fprintf(stdout, "  health: %s\n", r.health.verdict())
			for _, tr := range r.health.Transitions {
				fmt.Fprintf(stdout, "    %s %s → %s [%s]\n",
					time.Duration(tr.TNs), tr.From, tr.To, strings.Join(tr.Rules, ", "))
			}
		}
	}
	if cfg.out != "" {
		if err := writeReport(cfg.out, results); err != nil {
			return err
		}
	}
	if len(results) == 2 {
		speedup := results[0].perTenantNs() / results[1].perTenantNs()
		fmt.Fprintf(stdout, "batch speedup: %.1fx per admitted tenant\n", speedup)
		if cfg.minSpeedup > 0 && speedup < cfg.minSpeedup {
			return fmt.Errorf("%w: %.1fx < %.1fx", ErrGate, speedup, cfg.minSpeedup)
		}
	}
	return nil
}

// target abstracts where requests go: an in-process handler or a live
// server. do returns the response status and, for batches, the number of
// failed items.
type target interface {
	do(path string, body []byte) (status, failed int, err error)
	pipelineStages() (map[string]float64, bool)
	health() (*healthSummary, bool)
	close() error
}

// selfhosted serves a fresh controller on a loopback listener and drives
// it over HTTP like any client would.
type selfhosted struct {
	remote
	srv  *httptest.Server
	ctrl *api.Controller
}

func (cfg config) engineConfig() core.Config { return core.Config{Gamma: cfg.gamma, K: cfg.k} }

func newSelfhosted(cfg config) (*selfhosted, error) {
	var (
		cf   *core.CubeFit
		err  error
		opts []api.Option
	)
	if cfg.wal != "" {
		// Boot as `cubefit-server -wal` does: recover the engine, cut a
		// torn final record, reopen the log for append.
		var st recovery.Stats
		if cf, st, err = recovery.FromFile(cfg.wal, cfg.engineConfig()); err != nil {
			return nil, fmt.Errorf("wal recovery: %w", err)
		}
		if _, err := obs.TruncateWAL(cfg.wal, st.CommittedBytes); err != nil {
			return nil, err
		}
		w, err := obs.OpenWAL(cfg.wal)
		if err != nil {
			return nil, err
		}
		opts = append(opts, api.WithWAL(w))
	} else if cf, err = core.New(cfg.engineConfig()); err != nil {
		return nil, err
	}
	if !cfg.trace {
		opts = append(opts, api.WithoutSpanTracing())
	}
	if cfg.spanSink != nil {
		opts = append(opts, api.WithSpanSink(cfg.spanSink))
	}
	if cfg.health {
		// Sample health for real during the run, so the report's verdict
		// reflects what the load did to the server rather than the boot
		// state. -health=false keeps the loop off, which CI diffs against
		// to measure the sampler's overhead.
		opts = append(opts, api.WithHealthLoop())
	}
	ctrl, err := api.NewController(cf, workload.DefaultLoadModel(), opts...)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(ctrl.Handler())
	s := &selfhosted{srv: srv, ctrl: ctrl}
	s.remote = *newRemote(config{url: srv.URL, workers: cfg.workers})
	return s, nil
}

func (s *selfhosted) close() error {
	s.srv.Close()
	return s.ctrl.Close()
}

// remote drives a live server over HTTP with connection reuse.
type remote struct {
	base   string
	client *http.Client
}

func newRemote(cfg config) *remote {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = cfg.workers * 2
	return &remote{base: cfg.url, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (r *remote) do(path string, body []byte) (int, int, error) {
	resp, err := r.client.Post(r.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	return decodeOutcome(resp.StatusCode, data)
}

func (r *remote) close() error { return nil }

// stageNames are the pipeline stages exported as report columns: queue
// wait, in-batch placement, and the combined WAL-stage+fsync commit cost.
var stageNames = []string{"queue", "place", "commit"}

// pipelineStages pulls per-stage P50/P99 (ns) from GET /debug/pipeline,
// reporting ok=false when the target does not trace (404 or any error) so
// untraced runs simply omit the columns.
func (r *remote) pipelineStages() (map[string]float64, bool) {
	resp, err := r.client.Get(r.base + "/debug/pipeline")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var debug struct {
		Spans struct {
			Stages map[string]struct {
				P50Ns float64 `json:"p50Ns"`
				P99Ns float64 `json:"p99Ns"`
			} `json:"stages"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&debug); err != nil {
		return nil, false
	}
	out := make(map[string]float64, 2*len(stageNames))
	for _, name := range stageNames {
		s, ok := debug.Spans.Stages[name]
		if !ok {
			return nil, false
		}
		out[name+"-p50-ns"] = s.P50Ns
		out[name+"-p99-ns"] = s.P99Ns
	}
	return out, true
}

// health pulls the target's verdict from GET /debug/health, reporting
// ok=false when the endpoint is absent (an older or foreign server) so
// such targets simply omit the health line.
func (r *remote) health() (*healthSummary, bool) {
	resp, err := r.client.Get(r.base + "/debug/health")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var hs healthSummary
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		return nil, false
	}
	return &hs, true
}

// decodeOutcome extracts per-item failures from a batch response; single
// responses report via status alone.
func decodeOutcome(status int, body []byte) (int, int, error) {
	if status != http.StatusOK {
		return status, 0, nil
	}
	var br struct {
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return status, 0, err
	}
	return status, br.Failed, nil
}

// runMode measures one mode on a fresh target (in-process) or the shared
// live server (-url).
func runMode(cfg config, batched bool) (result, error) {
	var tgt target
	if cfg.url != "" {
		tgt = newRemote(cfg)
	} else {
		s, err := newSelfhosted(cfg)
		if err != nil {
			return result{}, err
		}
		tgt = s
	}
	defer tgt.close()

	name := "single"
	if batched {
		name = "batch"
	}
	// Unique IDs per run; a live server, and a log booted again for every
	// mode, keep state across modes, so salt with the current time to
	// avoid 409s between modes and invocations.
	var base int64
	if cfg.url != "" || cfg.wal != "" {
		base = time.Now().UnixNano() % (1 << 40)
	}
	var next atomic.Int64
	next.Store(base)
	admitted := base + int64(cfg.ops)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		requests atomic.Int64
		fails    atomic.Int64
		lats     = make([][]float64, cfg.workers)
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]float64, 0, cfg.ops/cfg.workers+1)
			defer func() { lats[w] = local }()
			for {
				var take int64 = 1
				if batched {
					take = int64(cfg.batch)
				}
				lo := next.Add(take) - take
				if lo >= admitted {
					return
				}
				hi := lo + take
				if hi > admitted {
					hi = admitted
				}
				body, path := encodeRequest(lo, hi, batched)
				t0 := time.Now()
				status, failed, err := tgt.do(path, body)
				local = append(local, float64(time.Since(t0).Nanoseconds()))
				requests.Add(1)
				if err != nil {
					fail(err)
					return
				}
				wantStatus := http.StatusCreated
				if batched {
					wantStatus = http.StatusOK
				}
				if status != wantStatus || failed > 0 {
					fails.Add(hi - lo)
					fail(fmt.Errorf("%s admission failed: status %d, %d failed items", name, status, failed))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return result{}, firstErr
	}
	var merged []float64
	for _, l := range lats {
		merged = append(merged, l...)
	}
	// Server-side stage attribution, when the target traces. On a shared
	// -url target the window spans every mode driven so far; self-hosted
	// targets are fresh per mode.
	stages, _ := tgt.pipelineStages()
	var hs *healthSummary
	if cfg.health {
		hs, _ = tgt.health()
	}
	return result{
		name:      name,
		tenants:   cfg.ops,
		firstID:   base,
		requests:  int(requests.Load()),
		elapsed:   elapsed,
		latencies: merged,
		stages:    stages,
		health:    hs,
	}, nil
}

// checkRecovered recovers the log once more after the last mode, which
// also validates the placement: the fleet must be exactly the tenants held
// at start plus every admission the modes acked.
func checkRecovered(cfg config, held []packing.Tenant, results []result) error {
	cf, _, err := recovery.FromFile(cfg.wal, cfg.engineConfig())
	if err != nil {
		return fmt.Errorf("wal recovery after the run: %w", err)
	}
	p := cf.Placement()
	want := len(held)
	for _, t := range held {
		if _, ok := p.Tenant(t.ID); !ok {
			return fmt.Errorf("wal recovery after the run: tenant %d, held at start, is gone", t.ID)
		}
	}
	for _, r := range results {
		want += r.tenants
		for id := r.firstID; id < r.firstID+int64(r.tenants); id++ {
			if _, ok := p.Tenant(packing.TenantID(id)); !ok {
				return fmt.Errorf("wal recovery after the run: %s admission of tenant %d was acked but is not in the log", r.name, id)
			}
		}
	}
	if got := p.NumTenants(); got != want {
		return fmt.Errorf("wal recovery after the run: %d tenants, want %d held at start plus acked", got, want)
	}
	return nil
}

// encodeRequest builds the admission body for tenant IDs [lo, hi). Client
// counts cycle 1..15, deriving loads well inside (0,1] under the default
// model.
func encodeRequest(lo, hi int64, batched bool) ([]byte, string) {
	var buf bytes.Buffer
	if !batched {
		fmt.Fprintf(&buf, `{"id":%d,"clients":%d}`, lo, 1+lo%15)
		return buf.Bytes(), "/v1/tenants"
	}
	buf.WriteString(`{"tenants":[`)
	for id := lo; id < hi; id++ {
		if id > lo {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"id":%d,"clients":%d}`, id, 1+id%15)
	}
	buf.WriteString(`]}`)
	return buf.Bytes(), "/v1/tenants:batch"
}

func latencyPercentiles(ns []float64) (p50, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	p50, _ = stats.PercentileInPlace(ns, 50)
	p99, _ = stats.P99InPlace(ns)
	return p50, p99
}

// report mirrors the cubefit-bench JSON shape so -compare diffs load runs
// like benchmark runs.
type report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func writeReport(path string, results []result) error {
	rep := report{Goos: runtime.GOOS, Goarch: runtime.GOARCH, Pkg: "cubefit/cmd/cubefit-load"}
	for _, r := range results {
		p50, p99 := latencyPercentiles(r.latencies)
		metrics := map[string]float64{
			"ns/op":     r.perTenantNs(),
			"p50-ns":    p50,
			"p99-ns":    p99,
			"tenants/s": r.throughput(),
		}
		// Per-stage breakdown columns (queue/place/commit P50/P99) so
		// cubefit-bench -compare can gate stage regressions; absent when
		// the target does not trace, which -compare skips.
		for k, v := range r.stages {
			metrics[k] = v
		}
		// Health verdict columns: the ticks sampled during the run (0 when
		// it ended before the first, so the verdict is empty) and the
		// transitions observed (0 on a run the server stayed healthy
		// through).
		if r.health != nil {
			metrics["health-ticks"] = float64(r.health.Ticks)
			metrics["health-transitions"] = float64(r.health.TransitionsTotal)
		}
		rep.Benchmarks = append(rep.Benchmarks, benchmark{
			Name:       "Load/" + r.name,
			Iterations: int64(r.tenants),
			Metrics:    metrics,
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
