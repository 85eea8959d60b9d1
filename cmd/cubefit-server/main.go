// Command cubefit-server runs the placement controller as an HTTP service.
//
// Usage:
//
//	cubefit-server [-addr :8080] [-gamma 2] [-k 10] [-redline 0.05] [-wal path]
//	               [-spans path] [-slo-latency-p99 100ms] [-health-interval 1s]
//	               [-health-log path] [-pprof] [-drain 10s]
//
// Endpoints:
//
//	POST   /v1/tenants       {"id":1,"load":0.3} or {"id":1,"clients":8}
//	POST   /v1/tenants:batch {"tenants":[...]} batched admission
//	GET    /v1/tenants/{id}
//	DELETE /v1/tenants/{id}
//	GET    /v1/placement
//	GET    /v1/servers
//	GET    /v1/stats
//	GET    /v1/validate
//	POST   /v1/drill         {"failures":2}
//	GET    /v1/healthz
//	GET    /healthz          liveness: 200 while the process serves, verdict in the body
//	GET    /readyz           readiness: 503 while health is critical or the server drains
//	GET    /metrics          Prometheus text exposition
//	GET    /debug/events     last decision events [?n=200]
//	GET    /debug/headroom   worst-case failover slack per server [?worst=n]
//	GET    /debug/headroom/servers/{id}  one server's worst set, attributed
//	GET    /debug/pipeline   admission stage percentiles, queue state, recent group commits
//	GET    /debug/health     full health verdict, firing rules, rule configuration
//	GET    /debug/timeline   sampled metric time-series [?series=&window=]
//	GET    /explain/tenants/{id}  reconstructed decision path + failover
//	/debug/pprof/*           with -pprof only
//
// Operations: the server applies Read/Write/Idle timeouts, logs every
// request as a structured (slog) line, and exports per-route request
// counts, status classes, latency histograms, and admission-outcome
// counters at GET /metrics. The engine's decision flight recorder
// (internal/obs) feeds GET /debug/events and GET /explain/tenants/{id}
// as well as the engine gauges and per-path admission latency
// histograms on /metrics. The same stream drives the incremental
// robustness headroom auditor: GET /debug/headroom reports every server's
// worst-case failover slack and arg-max failure set, and the
// cubefit_headroom_* gauges track the minimum/median slack plus the
// servers below the -redline threshold.
//
// Tracing: the admission pipeline stamps every request with a per-stage
// span (queue wait, placement, WAL stage, group-commit fsync, ack) and
// exports stage histograms plus queue gauges on /metrics and live
// percentiles on GET /debug/pipeline. Tracing is always on: the queue and
// placer-stall health rules watch its series. -spans path additionally
// streams every finished span as JSONL for offline analysis with
// `cubefit-inspect latency`.
//
// Health: a telemetry monitor (internal/telemetry) samples the metric
// registry every -health-interval into bounded ring time-series and
// evaluates the SLO rules each tick: multi-window burn rate on the
// admission latency histograms against -slo-latency-p99, the headroom
// red-line floor (-redline) with erosion projection, queue saturation
// and oldest-wait bounds, sticky-WAL-error detection, and a placer-stall
// watchdog. The rules drive a healthy/degraded/critical state machine
// with de-escalation hysteresis: GET /healthz stays 200 while the
// process serves (liveness), GET /readyz answers 503 while the state is
// critical or the server is draining, and GET /debug/health and
// GET /debug/timeline expose the verdict and the underlying series.
// -health-log streams every tick's samples and every state transition as
// JSONL for offline replay with `cubefit-inspect health`.
//
// Durability: with -wal the server keeps a write-ahead operation log, one
// append-only file: after a format header, one record per admission
// (tenant, load, clients, the host of each replica), rejected admission or
// departure. At boot the server replays the log into a fresh engine
// (recovery.FromFile), checks every replayed admission against its logged
// hosts and the rebuilt placement against the robustness validator,
// truncates a torn final record, and refuses to serve from a log that does
// not replay cleanly or is not in this format (logs of the decision-event
// format of earlier releases are refused; there is no migration). It also
// refuses to boot while segment files of the retired sharded log format
// (<path>.seg0, <path>.seg1, …) sit beside the log: their history would
// otherwise be silently ignored. There is one commit path: the admission
// pipeline's placer group-commits (flushes and fsyncs) every coalesced
// group of admissions and departures before it acks any of them, and
// applies a departure only after its commit. If the log cannot commit,
// mutations fail closed with 503, and a departure answered 503 leaves its
// tenant where it was. The decision stream itself is not logged: GET
// /debug/events keeps its recent part, and `cubefit-inspect explain -wal`
// and `headroom -wal` regenerate all of it by replaying the log.
//
// On SIGINT/SIGTERM the server marks itself draining (GET /readyz flips
// to 503 so load balancers stop routing new traffic), stops accepting new
// connections, drains in-flight requests for up to -drain, then drains
// the admission pipeline and performs the WAL's final commit before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cubefit/internal/api"
	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
	"cubefit/internal/recovery"
	"cubefit/internal/telemetry"
	"cubefit/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cubefit-server:", err)
		os.Exit(1)
	}
}

// options carries the operational settings parsed from flags alongside
// the algorithm configuration and the controller owning the admission
// pipeline (closed after the HTTP drain completes).
type options struct {
	cfg   core.Config
	drain time.Duration
	pprof bool
	ctrl  *api.Controller
	// spanLog/spanSink are set with -spans: the JSONL span export file,
	// closed (with its sticky encode error surfaced) after the controller
	// drains so every finished span reaches the file.
	spanLog  *os.File
	spanSink *obs.SpanJSONL
	// healthLog/healthSink are set with -health-log: the JSONL health
	// export (config, per-tick samples, state transitions), closed after
	// the controller stops its sampling loop.
	healthLog  *os.File
	healthSink *obs.HealthJSONL
}

func run(args []string) error {
	srv, opts, err := newServer(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	slog.Info("cubefit-server listening",
		"addr", ln.Addr().String(), "gamma", opts.cfg.Gamma, "k", opts.cfg.K,
		"pprof", opts.pprof, "drain", opts.drain)
	err = serve(ctx, ln, srv, opts.ctrl, opts.drain)
	// Once no handler can enqueue new work, drain the admission pipeline
	// and commit the write-ahead log's final batch.
	if cerr := opts.ctrl.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing admission pipeline: %w", cerr)
	}
	if opts.spanLog != nil {
		if serr := opts.spanSink.Err(); serr != nil && err == nil {
			err = fmt.Errorf("span export: %w", serr)
		}
		if cerr := opts.spanLog.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing span log: %w", cerr)
		}
	}
	if opts.healthLog != nil {
		if serr := opts.healthSink.Err(); serr != nil && err == nil {
			err = fmt.Errorf("health export: %w", serr)
		}
		if cerr := opts.healthLog.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing health log: %w", cerr)
		}
	}
	return err
}

// serve runs srv on ln until it fails or ctx is cancelled, then shuts
// down gracefully: readiness flips to 503 first so load balancers stop
// routing, the listener closes, and in-flight requests get up to drain
// to complete.
func serve(ctx context.Context, ln net.Listener, srv *http.Server, ctrl *api.Controller, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		slog.Info("shutting down", "drain", drain)
		// Readiness-aware drain: /readyz answers 503 from here on while
		// the in-flight requests (and any probe hitting /healthz) still
		// complete against the live handler.
		ctrl.SetDraining(true)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		slog.Info("shutdown complete")
		return nil
	}
}

// newServer parses flags and builds the HTTP server without starting it.
func newServer(args []string) (*http.Server, options, error) {
	fs := flag.NewFlagSet("cubefit-server", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		gamma     = fs.Int("gamma", 2, "replicas per tenant")
		k         = fs.Int("k", 10, "CubeFit classes")
		withPprof = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		drain     = fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		redline   = fs.Float64("redline", headroom.DefaultRedLine,
			"headroom red-line: slack below this counts a server in cubefit_headroom_below_redline")
		walPath = fs.String("wal", "", "write-ahead log path: replay at boot, group-commit admissions before ack")
		spans   = fs.String("spans", "", "stream finished admission spans to this JSONL file")
		sloP99  = fs.Duration("slo-latency-p99", telemetry.DefaultObjective,
			"admission latency objective: requests at or under it are \"good\" for the burn-rate rules")
		healthInterval = fs.Duration("health-interval", telemetry.DefaultInterval,
			"health sampling period (/healthz, /readyz, /debug/health, /debug/timeline)")
		healthLog = fs.String("health-log", "",
			"stream health samples and state transitions to this JSONL file (replay with `cubefit-inspect health`)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, options{}, err
	}
	if *sloP99 <= 0 {
		return nil, options{}, fmt.Errorf("-slo-latency-p99 must be positive, got %v", *sloP99)
	}
	if *healthInterval <= 0 {
		return nil, options{}, fmt.Errorf("-health-interval must be positive, got %v", *healthInterval)
	}
	opts := options{cfg: core.Config{Gamma: *gamma, K: *k}, drain: *drain, pprof: *withPprof}
	var (
		cf       *core.CubeFit
		err      error
		ctrlOpts []api.Option
	)
	if *walPath != "" {
		if err := refuseSegmentFiles(*walPath); err != nil {
			return nil, options{}, err
		}
		var rstats recovery.Stats
		cf, rstats, err = recovery.FromFile(*walPath, opts.cfg)
		if err != nil {
			return nil, options{}, fmt.Errorf("wal recovery: %w", err)
		}
		slog.Info("wal recovered", "path", *walPath,
			"events", rstats.Events, "admitted", rstats.Admitted,
			"rejected", rstats.Rejected, "departed", rstats.Departed,
			"torn", rstats.Torn, "tenants", cf.Placement().NumTenants())
		// Cut a torn final record before appending: recovery dropped it,
		// and left in the file, fresh records would append after it and
		// the next boot would read a corrupt line.
		if trimmed, terr := obs.TruncateWAL(*walPath, rstats.CommittedBytes); terr != nil {
			return nil, options{}, fmt.Errorf("wal truncate: %w", terr)
		} else if trimmed > 0 {
			slog.Info("wal torn tail truncated", "path", *walPath, "bytes", trimmed)
		}
		wal, werr := obs.OpenWAL(*walPath)
		if werr != nil {
			return nil, options{}, fmt.Errorf("wal open: %w", werr)
		}
		ctrlOpts = append(ctrlOpts, api.WithWAL(wal))
	} else {
		cf, err = core.New(opts.cfg)
		if err != nil {
			return nil, options{}, err
		}
	}
	if *spans != "" {
		f, ferr := os.Create(*spans)
		if ferr != nil {
			return nil, options{}, fmt.Errorf("span log: %w", ferr)
		}
		opts.spanLog = f
		opts.spanSink = obs.NewSpanJSONL(f)
		ctrlOpts = append(ctrlOpts, api.WithSpanSink(opts.spanSink))
	}
	// Health monitor: defaults with the deployment's objective, sampling
	// period, and headroom red line folded in. The queue capacity stays 0
	// here — the controller wires its admission queue's real bound.
	hcfg := telemetry.DefaultConfig()
	hcfg.Interval = *healthInterval
	hcfg.Burn.Objective = *sloP99
	hcfg.Headroom.Floor = *redline
	ctrlOpts = append(ctrlOpts, api.WithHealthConfig(hcfg), api.WithHealthLoop())
	if *healthLog != "" {
		f, ferr := os.Create(*healthLog)
		if ferr != nil {
			return nil, options{}, errors.Join(fmt.Errorf("health log: %w", ferr), closeLogs(&opts))
		}
		opts.healthLog = f
		opts.healthSink = obs.NewHealthJSONL(f)
		ctrlOpts = append(ctrlOpts, api.WithHealthLog(opts.healthSink))
	}
	ctrl, err := api.NewController(cf, workload.DefaultLoadModel(), ctrlOpts...)
	if err != nil {
		return nil, options{}, errors.Join(err, closeLogs(&opts))
	}
	opts.ctrl = ctrl
	ctrl.SetHeadroomRedLine(*redline)
	mux := http.NewServeMux()
	mux.Handle("/", ctrl.Handler())
	if opts.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return &http.Server{
		Addr:    *addr,
		Handler: requestLogging(slog.Default(), mux),
		// Placement operations are in-memory and fast; generous write and
		// idle timeouts cover large /v1/placement snapshots and keep-alive
		// reuse while still bounding stuck connections.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}, opts, nil
}

// refuseSegmentFiles fails the boot when segment files of the retired
// sharded log format (<path>.seg0, <path>.seg1, …) exist beside the log.
// Recovery reads only the single file at path, so booting past them would
// serve a fleet that silently lacks their acknowledged history. There is
// no migration: the operator decides what happens to them.
func refuseSegmentFiles(path string) error {
	dir := filepath.Dir(path)
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	prefix := filepath.Base(path) + ".seg"
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) > 0 {
		return fmt.Errorf("wal: refusing to boot: sharded-log segment files %s sit beside %s, and only the single-file log is read",
			strings.Join(segs, ", "), path)
	}
	return nil
}

// closeLogs closes whichever export files construction opened, so a
// refused boot does not leak descriptors.
func closeLogs(opts *options) error {
	var err error
	if opts.spanLog != nil {
		err = errors.Join(err, opts.spanLog.Close())
	}
	if opts.healthLog != nil {
		err = errors.Join(err, opts.healthLog.Close())
	}
	return err
}

// requestLogging logs one structured line per request. The wrapper
// preserves http.Flusher/io.ReaderFrom so pprof streaming and sendfile
// keep working through it.
func requestLogging(l *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ww, rec := metrics.WrapResponseWriter(w)
		next.ServeHTTP(ww, r)
		l.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.Code,
			"duration", time.Since(start),
			"remote", r.RemoteAddr)
	})
}
