package api

import (
	"fmt"
	"net/http"
	"time"

	"cubefit/internal/metrics"
	"cubefit/internal/obs"
	"cubefit/internal/telemetry"
)

// Health wiring: every controller carries a telemetry.Monitor scraping
// its own metric registry into ring time-series and evaluating the SLO
// and invariant rules (internal/telemetry). The monitor is always
// constructed — /healthz, /readyz, /debug/health, and /debug/timeline
// are always routable — but its background sampling loop only runs when
// WithHealthLoop is given (servers); tests and embedders drive
// HealthTick directly against a fake clock for deterministic verdicts.

// WithHealthConfig replaces the default telemetry rule configuration
// (objectives, windows, thresholds). Zero fields fall back to defaults;
// a zero queue capacity is wired to the admission pipeline's real bound.
func WithHealthConfig(cfg telemetry.Config) Option {
	return func(c *Controller) {
		c.healthCfg = cfg
		c.healthCfgSet = true
	}
}

// WithHealthLoop starts the background health sampling loop at the
// configured interval. Without it the monitor only advances on
// HealthTick, and /readyz reports the boot verdict (healthy) forever.
func WithHealthLoop() Option {
	return func(c *Controller) { c.healthLoop = true }
}

// WithHealthLog streams every health tick's sample set and every state
// transition to rec as JSONL records (obs.NewHealthJSONL), for offline
// replay with `cubefit-inspect health`. The sink must be safe for
// concurrent use.
func WithHealthLog(rec obs.HealthRecorder) Option {
	return func(c *Controller) { c.healthSink = rec }
}

// initHealth builds the controller's monitor after all options have
// applied: the rule config learns the pipeline's real queue capacity,
// the gauges computed on read refresh before every tick (refreshGauges),
// and the loop starts if requested.
func (c *Controller) initHealth() {
	cfg := c.healthCfg
	if !c.healthCfgSet {
		cfg = telemetry.DefaultConfig()
	}
	if cfg.Queue.Capacity == 0 {
		cfg.Queue.Capacity = admitQueueDepth
	}
	c.procM = metrics.NewProcessMetrics(c.registry)
	c.walErrG = c.registry.NewGauge(telemetry.SeriesWALStickyError,
		"1 while the write-ahead log carries a sticky commit error (admissions failing closed).")
	opts := []telemetry.Option{telemetry.WithHook(c.refreshGauges)}
	if c.healthSink != nil {
		opts = append(opts, telemetry.WithSink(c.healthSink))
	}
	c.monitor = telemetry.New(c.registry, cfg, c.clk, opts...)
	if c.healthLoop {
		c.monitor.Start()
	}
}

// refreshGauges recomputes every gauge that is computed when read: the
// process self-metrics, the WAL error gauge and the headroom gauges. The
// telemetry sampler runs it before each tick and GET /metrics before each
// exposition, so both see the same fresh values. None of them takes the
// controller lock (see updateWALGauge and refreshHeadroom).
func (c *Controller) refreshGauges() {
	c.procM.Update()
	c.updateWALGauge()
	c.refreshHeadroom()
}

// updateWALGauge mirrors the WAL's sticky error into the gauge the rule
// engine samples, making fail-closed state visible as a series. It reads
// the lock-free Failed flag, not Err: a group commit blocked inside a
// hung fsync holds the WAL lock, and the health tick must keep observing
// exactly that situation.
func (c *Controller) updateWALGauge() {
	if c.wal == nil {
		return
	}
	if c.wal.Failed() {
		c.walErrG.Set(1)
	} else {
		c.walErrG.Set(0)
	}
}

// Health returns the controller's telemetry monitor, so embedding
// servers can read the verdict or fold it into their own reporting.
func (c *Controller) Health() *telemetry.Monitor { return c.monitor }

// HealthTick advances the health monitor by one sample-evaluate cycle.
// Servers rely on the background loop; tests drive ticks explicitly
// against a fake clock (WithClock) for deterministic rule evaluation.
func (c *Controller) HealthTick() { c.monitor.Tick() }

// SetDraining marks the controller as draining: /readyz answers 503 so
// load balancers stop routing new traffic, while /healthz stays 200 and
// in-flight requests complete. Servers flip it before graceful
// shutdown.
func (c *Controller) SetDraining(v bool) { c.draining.Store(v) }

// livenessResponse is GET /healthz.
type livenessResponse struct {
	Status string `json:"status"`
}

// handleHealthz is liveness: always 200 while the process serves, with
// the current verdict in the body. Orchestrators that restart on
// liveness failure must not restart a degraded-but-serving node; that
// is /readyz's call.
func (c *Controller) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, livenessResponse{Status: c.monitor.State().String()})
}

// readyzResponse is GET /readyz.
type readyzResponse struct {
	Ready    bool   `json:"ready"`
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
}

// handleReadyz is readiness: 503 while the health state is critical
// (sustained SLO burn, headroom below the red line, sticky WAL error,
// placer stall) or the server is draining for shutdown; 200 otherwise,
// including degraded — a degraded node still serves correctly.
func (c *Controller) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := c.monitor.State()
	draining := c.draining.Load()
	ready := st != telemetry.Critical && !draining
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, readyzResponse{Ready: ready, Status: st.String(), Draining: draining})
}

// healthDebugResponse is GET /debug/health: the full verdict (state,
// firing findings, recent transitions) plus the effective rule
// configuration.
type healthDebugResponse struct {
	telemetry.Status
	Config telemetry.Config `json:"config"`
}

func (c *Controller) handleDebugHealth(w http.ResponseWriter, _ *http.Request) {
	st := c.monitor.Status()
	if st.Findings == nil {
		st.Findings = []telemetry.Finding{}
	}
	if st.Transitions == nil {
		st.Transitions = []telemetry.Transition{}
	}
	writeJSON(w, http.StatusOK, healthDebugResponse{Status: st, Config: c.monitor.Config()})
}

// timelineIndexResponse is GET /debug/timeline without ?series=: the
// sorted list of every series the sampler has retained.
type timelineIndexResponse struct {
	Series []string `json:"series"`
}

// timelineResponse is GET /debug/timeline?series=...: the retained
// samples of one series, oldest first, optionally bounded to the last
// ?window= (a Go duration such as 30s or 5m).
type timelineResponse struct {
	Series string            `json:"series"`
	Window string            `json:"window,omitempty"`
	Points []telemetry.Point `json:"points"`
}

func (c *Controller) handleTimeline(w http.ResponseWriter, r *http.Request) {
	series := r.URL.Query().Get("series")
	if series == "" {
		keys := c.monitor.SeriesKeys()
		if keys == nil {
			keys = []string{}
		}
		writeJSON(w, http.StatusOK, timelineIndexResponse{Series: keys})
		return
	}
	var window time.Duration
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid window " + raw})
			return
		}
		window = d
	}
	pts, ok := c.monitor.Timeline(series, window)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("unknown series %q (GET /debug/timeline lists them)", series)})
		return
	}
	if pts == nil {
		pts = []telemetry.Point{}
	}
	resp := timelineResponse{Series: series, Points: pts}
	if window > 0 {
		resp.Window = window.String()
	}
	writeJSON(w, http.StatusOK, resp)
}
