// Package api exposes a consolidation engine as a small operational HTTP
// service: tenant admission and departure, placement inspection, failover
// drills, and invariant audits. It is the operational wrapper a cloud
// provider would put in front of the placement algorithm (DESIGN.md §2
// item 18).
//
// Concurrency: the controller guards the algorithm with a sync.RWMutex.
// Read-only endpoints (stats, servers, placement, validate, tenant lookup)
// take the read lock and run concurrently. Every mutation — POST
// /v1/tenants, POST /v1/tenants:batch and DELETE /v1/tenants/{id} —
// enqueues a job for one placer goroutine (pipeline.go), which coalesces
// waiting jobs into one write-lock acquisition, preserving exact serial
// order while amortizing lock traffic and snapshot invalidation. The
// snapshot served by GET /v1/placement is cached between mutations, and
// exhaustive drills run on a lock-free clone of it. Fleet-wide reads
// still stall admissions, though: any mutation drops the cache, and the
// next reader captures a fresh snapshot under the write lock
// (trace.Capture took 188 ms at 250k tenants on a 2-vCPU host). A
// /v1/placement poller every 50 ms raised the slowest admission there
// from 10.7 ms to 295 ms. ROADMAP.md item 8 takes these reads off the
// controller lock.
//
// Durability: with a write-ahead log attached (WithWAL), the log holds one
// record per admission, rejected admission or departure, and is
// group-committed (flushed and synced once per group) before any mutation
// in the group is acked; internal/recovery rebuilds the exact acked state
// from it on boot. There is one commit path: the placer is the only code
// that mutates the engine or syncs the log (placeJobs). An admission
// reaches the engine before the log, which records the decisions it made;
// a departure needs no decision, so it is logged and synced before it is
// applied. Every mutation reaches the log in the order it reached the
// engine, so recovery replays one total order. A log error fails
// mutations closed (503) and leaves the engine as clients were told: a
// departure answered 503 leaves its tenant where it was.
//
// Observability: every route has request counters (by method and status
// class) and latency histograms, admissions are counted by outcome
// (first_stage / regular / tiny / placed / rejected) when the algorithm
// reports its admission path, and GET /metrics serves the Prometheus text
// exposition. The algorithm must record its decisions (internal/obs), as
// every engine in the repository does; the controller buffers each
// mutation's events and delivers them once, when it completes
// (mutatedLocked), to the ring behind GET /debug/events (each event
// carries its mutation's time) and GET /explain/tenants/{id} (a tenant's
// decision path with its failover attribution), and to the per-kind event
// counter; the engine gauges are read from the engine after each
// mutation. Admission latency comes from the pipeline spans' place stage. The servers each mutation touched drive an
// incremental robustness headroom auditor (internal/headroom): GET
// /debug/headroom reports every server's worst-case failover slack and
// arg-max failure set, GET /debug/headroom/servers/{id} drills one server
// down to the tenants contributing its worst set, and the
// cubefit_headroom_* gauges track the minimum and median slack, the
// red-lined server count, and overload-on-failure transitions. Those
// gauges, like the process and WAL gauges, are computed when read — by
// the telemetry sampler's tick and by GET /metrics — without the
// controller lock.
//
// Error contract: 400 for malformed or invalid requests (bad JSON, load
// outside (0,1], negative clients/failures, missing load and clients),
// 404 for unknown tenants, 405 for unsupported operations, 409 for
// duplicate admissions and failed audits, 422 for well-formed admissions
// the algorithm cannot place (including client counts whose model-derived
// load falls outside (0,1]), 500 for internal failures, 503 when the
// write-ahead log is unavailable or the server is shutting down. Batch
// admissions report these same codes per item with partial-failure
// semantics.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"cubefit/internal/clock"
	"cubefit/internal/core"
	"cubefit/internal/failure"
	"cubefit/internal/headroom"
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/telemetry"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// Remover is implemented by algorithms that support tenant departure.
type Remover interface {
	Remove(packing.TenantID) error
}

// admissionObservable is implemented by algorithms (CubeFit, RFI, the
// naive baselines) that report the outcome of each admission attempt.
type admissionObservable interface {
	SetAdmissionHook(func(core.AdmissionPath))
}

// recordable is implemented by algorithms that emit their decision trail
// to a flight recorder (internal/obs): every engine in the repository.
// The controller requires it.
type recordable interface {
	SetRecorder(obs.Recorder)
}

// eventRingCapacity bounds the in-memory flight recorder served by
// GET /debug/events. At roughly 15 events per admission it retains the
// decision trails of the last few hundred tenants.
const eventRingCapacity = 8192

// Controller serves the placement API around one algorithm instance.
type Controller struct {
	mu    sync.RWMutex
	alg   packing.Algorithm
	model workload.LoadModel
	// snap caches the trace.Capture of the current placement; nil after
	// any mutation (including failed admissions, which may open servers).
	//cubefit:guarded-by mu
	snap *trace.Snapshot

	registry   *metrics.Registry
	httpM      *metrics.HTTPMetrics
	admissions *metrics.CounterVec
	// pending is the engine's decision recorder: it buffers the events of
	// the mutation in progress until mutatedLocked delivers them.
	//cubefit:guarded-by mu
	pending eventBuffer
	// ring retains the most recent decision events. It has its own lock,
	// so the event endpoints never contend with placement mutations.
	ring *obs.Ring[obs.Event]
	// auditor incrementally tracks worst-case failover headroom from the
	// servers each mutation touched; it feeds the cubefit_headroom_*
	// gauges and the /debug/headroom routes.
	auditor   *headroom.Auditor
	headroomM *headroomMetrics
	// engineM holds the engine families of /metrics.
	engineM *engineMetrics

	// clk is the time source for pipeline span stamping and for the time
	// of each mutation's events; WithClock substitutes a fake in tests.
	clk clock.Clock
	// tracer stamps every admission with per-stage timestamps and owns the
	// pipeline histograms, queue gauges, progress counter, and GET
	// /debug/pipeline state. It is always on: the queue and stall health
	// rules watch its series.
	tracer *pipelineTracer
	// spanSink, when attached, receives every completed span (span JSONL
	// export for cubefit-inspect latency).
	spanSink obs.SpanRecorder

	// monitor is the health sampler and rule engine behind /healthz,
	// /readyz, /debug/health, and /debug/timeline (see health.go). Always
	// constructed; the background loop runs only with WithHealthLoop.
	monitor *telemetry.Monitor
	// healthCfg/healthCfgSet/healthSink/healthLoop stage the health
	// options until initHealth builds the monitor.
	healthCfg    telemetry.Config
	healthCfgSet bool
	healthSink   obs.HealthRecorder
	healthLoop   bool
	// draining flips /readyz to 503 ahead of graceful shutdown.
	draining atomic.Bool
	// walErrG mirrors the WAL's sticky error into a gauge the health
	// rules sample; procM refreshes the process self-metrics per scrape.
	walErrG *metrics.Gauge
	procM   *metrics.ProcessMetrics

	// wal, when attached, receives every decision event through Record
	// (mutatedLocked) and each departure before it is applied, and is
	// group-committed by the placer before mutations are acked; a WAL
	// error fails mutations closed (see commitGroup).
	wal obs.CommitLog
	// Admission pipeline (see pipeline.go): queue feeds the single placer
	// goroutine, sendMu+closed gate producers during shutdown, placerDone
	// closes when the placer has drained.
	queue  chan *admitJob
	sendMu sync.RWMutex
	//cubefit:guarded-by sendMu
	closed     bool
	placerDone chan struct{}
}

// Option configures a Controller beyond its required dependencies.
type Option func(*Controller)

// WithWAL attaches a write-ahead log to the decision event stream: every
// mutation's events reach its Record, in engine order, before the group
// commit. *obs.WAL keeps one record per operation the stream closes
// (admission, rejected admission, departure), group-committed before
// mutations are acked, and a log error disables mutations (fail closed)
// instead of dropping operations. The rest of the stream stays in the
// event ring behind GET /debug/events. Requires an algorithm that
// implements Remover, so a failed commit's admissions can be rolled back.
// The controller takes ownership: Close performs the final commit and
// closes the log.
func WithWAL(w obs.CommitLog) Option {
	return func(c *Controller) { c.wal = w }
}

// WithSpanSink attaches an external consumer for completed admission
// spans (typically obs.SpanJSONL for offline analysis with
// `cubefit-inspect latency`). The sink receives every span after the
// in-memory window and the stage histograms; it must be safe for
// concurrent use.
func WithSpanSink(s obs.SpanRecorder) Option {
	return func(c *Controller) { c.spanSink = s }
}

// WithClock substitutes the controller's time source for span stamping
// and event times. Tests use a fake; the default is the monotonic real
// clock.
func WithClock(clk clock.Clock) Option {
	return func(c *Controller) { c.clk = clk }
}

// NewController wraps an algorithm, which must record its decision
// events (SetRecorder). The load model translates client-count admissions
// into loads.
func NewController(alg packing.Algorithm, model workload.LoadModel, opts ...Option) (*Controller, error) {
	if alg == nil {
		return nil, errors.New("api: nil algorithm")
	}
	rec, ok := alg.(recordable)
	if !ok {
		return nil, fmt.Errorf("api: %s does not record decision events", alg.Name())
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		alg: alg, model: model, registry: metrics.NewRegistry(),
		clk:        clock.Real(),
		queue:      make(chan *admitJob, admitQueueDepth),
		placerDone: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	c.httpM = metrics.NewHTTPMetrics(c.registry)
	c.tracer = newPipelineTracer(c.registry, c.clk, c.spanSink)
	c.admissions = c.registry.NewCounterVec("cubefit_admissions_total",
		"Tenant admissions by outcome path.", "outcome")
	if ao, ok := alg.(admissionObservable); ok {
		// The hook runs inside Place, i.e. under the controller write
		// lock; the counter itself is atomic.
		ao.SetAdmissionHook(func(p core.AdmissionPath) {
			c.admissions.With(p.String()).Inc()
		})
	}
	if c.wal != nil {
		// A failed group commit is rolled back by removing the tenants the
		// group admitted (rollbackBatch); without Remove the 503s would lie
		// about the in-memory state, so refuse the attachment up front.
		if _, ok := alg.(Remover); !ok {
			return nil, fmt.Errorf("api: %s does not support tenant removal; cannot attach a WAL (commit-failure rollback requires it)", alg.Name())
		}
	}
	// Flight recorder: the engine buffers each mutation's events, and
	// mutatedLocked delivers them once — to the write-ahead log when
	// attached, to the incremental headroom auditor (/debug/headroom and
	// the cubefit_headroom_* gauges), to the in-memory ring (for
	// /debug/events and /explain) and to the engine families on /metrics.
	c.ring = obs.NewRing[obs.Event](eventRingCapacity)
	c.auditor = headroom.New(alg.Placement(), 0)
	c.headroomM = newHeadroomMetrics(c.registry)
	c.engineM = newEngineMetrics(c.registry, alg)
	// The recorder is engine state: attach it under the lock that guards
	// every engine call.
	c.mu.Lock()
	rec.SetRecorder(&c.pending)
	c.mu.Unlock()
	// Audit the servers a recovered placement already holds, so the first
	// read of the gauges sees them.
	c.auditor.Drain()
	c.initHealth()
	go c.runPlacer()
	return c, nil
}

// NewDefaultController wraps a fresh CubeFit instance with the default
// configuration and load model.
func NewDefaultController() (*Controller, error) {
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return NewController(cf, workload.DefaultLoadModel())
}

// Handler returns the HTTP routes, each instrumented with request and
// latency metrics under a stable route name.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, c.httpM.Instrument(name, h))
	}
	route("POST /v1/tenants", "place", c.handlePlace)
	route("POST /v1/tenants:batch", "place_batch", c.handlePlaceBatch)
	route("GET /v1/tenants/{id}", "get_tenant", c.handleGetTenant)
	route("DELETE /v1/tenants/{id}", "remove_tenant", c.handleRemoveTenant)
	route("GET /v1/placement", "placement", c.handlePlacement)
	route("GET /v1/servers", "servers", c.handleServers)
	route("GET /v1/stats", "stats", c.handleStats)
	route("GET /v1/validate", "validate", c.handleValidate)
	route("POST /v1/drill", "drill", c.handleDrill)
	route("GET /v1/healthz", "healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("GET /healthz", "health", c.handleHealthz)
	route("GET /readyz", "ready", c.handleReadyz)
	route("GET /debug/health", "debug_health", c.handleDebugHealth)
	route("GET /debug/timeline", "debug_timeline", c.handleTimeline)
	route("GET /debug/events", "debug_events", c.handleDebugEvents)
	route("GET /debug/pipeline", "debug_pipeline", c.handlePipeline)
	route("GET /debug/headroom", "debug_headroom", c.handleHeadroom)
	route("GET /debug/headroom/servers/{id}", "debug_headroom_server", c.handleHeadroomServer)
	route("GET /explain/tenants/{id}", "explain", c.handleExplain)
	exposition := c.registry.Handler()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		c.refreshGauges()
		exposition.ServeHTTP(w, r)
	})
	return mux
}

// eventsResponse is GET /debug/events: the last events retained by the
// flight recorder ring, oldest first, plus the total recorded since start
// (which exceeds len(events) once the ring has wrapped).
type eventsResponse struct {
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

// defaultEventDump bounds GET /debug/events responses when no ?n= limit
// is given.
const defaultEventDump = 200

func (c *Controller) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	n, ok := queryNonNegInt(w, r, "n", defaultEventDump)
	if !ok {
		return
	}
	// One lock acquisition for the pair: Total() and Last(n) read
	// separately can interleave with a concurrent admission and report a
	// total that disagrees with the returned events.
	total, events := c.ring.Snapshot(n)
	writeJSON(w, http.StatusOK, eventsResponse{Total: total, Events: events})
}

// explainReplica is one replica row of GET /explain/tenants/{id}: where
// the replica landed and which of the tenant's other servers absorb its
// clients if that server fails (γ-replication failover attribution).
type explainReplica struct {
	Replica    int   `json:"replica"`
	Server     int   `json:"server"`
	FailoverTo []int `json:"failoverTo"`
}

// explainResponse is GET /explain/tenants/{id}.
type explainResponse struct {
	Tenant   int              `json:"tenant"`
	Load     float64          `json:"load"`
	Servers  []int            `json:"servers"`
	Traced   bool             `json:"traced"`
	Decision *obs.Decision    `json:"decision,omitempty"`
	Failover []explainReplica `json:"failover"`
}

func (c *Controller) handleExplain(w http.ResponseWriter, r *http.Request) {
	t, hosts, ok := c.lookupTenant(w, r)
	if !ok {
		return
	}
	resp := explainResponse{
		Tenant:   int(t.ID),
		Load:     t.Load,
		Servers:  hosts,
		Failover: make([]explainReplica, 0, len(hosts)),
	}
	// Failover attribution: under γ-replication a failed server's clients
	// shift to the tenant's surviving replicas, i.e. its other hosts.
	for i, sid := range hosts {
		others := append(append(make([]int, 0, len(hosts)-1), hosts[:i]...), hosts[i+1:]...)
		resp.Failover = append(resp.Failover, explainReplica{Replica: i, Server: sid, FailoverTo: others})
	}
	if d, ok := obs.DecisionFor(c.ring.Last(-1), int(t.ID)); ok {
		resp.Traced = true
		resp.Decision = &d
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookupTenant returns the tenant named by the request path and its
// hosts, read under the read lock; it answers 400 or 404 and returns
// false when there is no such tenant.
func (c *Controller) lookupTenant(w http.ResponseWriter, r *http.Request) (packing.Tenant, []int, bool) {
	id, ok := pathID(w, r)
	if !ok {
		return packing.Tenant{}, nil, false
	}
	c.mu.RLock()
	t, exists := c.alg.Placement().Tenant(id)
	var hosts []int
	if exists {
		hosts = c.alg.Placement().TenantHosts(id)
	}
	c.mu.RUnlock()
	if !exists {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("tenant %d not found", id)})
	}
	return t, hosts, exists
}

// placeRequest admits a tenant either by explicit load or by client count
// (translated through the load model).
type placeRequest struct {
	ID      int     `json:"id"`
	Load    float64 `json:"load,omitempty"`
	Clients int     `json:"clients,omitempty"`
}

// validate rejects malformed admission requests before they reach the
// algorithm, so invalid input never perturbs placement state.
func (r placeRequest) validate() error {
	if r.ID < 0 {
		return fmt.Errorf("tenant id %d must be non-negative", r.ID)
	}
	if r.Clients < 0 {
		return fmt.Errorf("clients %d must be non-negative", r.Clients)
	}
	if r.Load < 0 || r.Load > 1 {
		return fmt.Errorf("load %v outside (0,1]", r.Load)
	}
	if r.Load == 0 && r.Clients == 0 {
		return errors.New("either load in (0,1] or clients > 0 required")
	}
	return nil
}

// placeResponse reports where the tenant's replicas went.
type placeResponse struct {
	ID      int     `json:"id"`
	Load    float64 `json:"load"`
	Clients int     `json:"clients,omitempty"`
	Servers []int   `json:"servers"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (c *Controller) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req placeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error()})
		return
	}
	if err := req.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	t, err := c.resolve(req)
	if err != nil {
		// A well-formed request whose derived load cannot be placed: the
		// unclamped linear model maps large client counts above 1.
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	// Single admissions ride the same pipeline as batches: the placer
	// coalesces concurrent requests into one lock acquisition and one WAL
	// group commit while preserving exact serial placement order.
	sp := obs.AcquireSpan()
	sp.Tenant = req.ID
	job := &admitJob{items: []admitItem{{tenant: t, span: sp}}, done: make(chan struct{})}
	if !c.enqueue(job) {
		obs.ReleaseSpan(sp)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
		return
	}
	<-job.done
	it := &job.items[0]
	it.span.Status = it.status
	c.tracer.finish(it.span)
	it.span = nil
	if it.status != http.StatusCreated {
		writeJSON(w, it.status, errorResponse{Error: it.err})
		return
	}
	writeJSON(w, http.StatusCreated, placeResponse{
		ID:      req.ID,
		Load:    t.Load,
		Clients: t.Clients,
		Servers: it.servers,
	})
}

func (c *Controller) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	t, hosts, ok := c.lookupTenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, placeResponse{
		ID:      int(t.ID),
		Load:    t.Load,
		Clients: t.Clients,
		Servers: hosts,
	})
}

func (c *Controller) handleRemoveTenant(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	if _, supports := c.alg.(Remover); !supports {
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Error: fmt.Sprintf("%s does not support tenant departure", c.alg.Name())})
		return
	}
	// The placer logs the departure, syncs, and only then applies it.
	job := &admitJob{items: []admitItem{{tenant: packing.Tenant{ID: id}, depart: true}}, done: make(chan struct{})}
	if !c.enqueue(job) {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
		return
	}
	<-job.done
	if it := &job.items[0]; it.status != http.StatusNoContent {
		writeJSON(w, it.status, errorResponse{Error: it.err})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Controller) handlePlacement(w http.ResponseWriter, _ *http.Request) {
	// The snapshot is immutable once cached; encoding it outside the lock
	// is safe and keeps the critical section short.
	writeJSON(w, http.StatusOK, c.snapshot())
}

// mutatedLocked runs after every engine mutation, under the write lock.
// It drops the cached placement snapshot and delivers the mutation's
// decision events once:
//   - each event, in engine order, to the log's Record, so its records
//     are staged before the group commit; depart events excepted, because
//     the placer logged each departure before applying it;
//   - the servers they placed on or opened to the auditor, which then
//     re-audits every touched server, O(those servers), so the headroom
//     gauges can be computed later without the controller lock (see
//     refreshHeadroom) and no overload transition goes uncounted (the
//     hosts of removed tenants were marked before the removal);
//   - the whole batch to the ring, numbered on from its total and
//     stamped with one time;
//   - the per-kind counts to /metrics, whose engine gauges it then sets
//     from the engine.
func (c *Controller) mutatedLocked() {
	c.snap = nil
	events := c.pending.events
	if c.wal != nil {
		for i := range events {
			if events[i].Kind != obs.KindDepart {
				c.wal.Record(events[i])
			}
		}
	}
	c.auditor.MarkPlaced(events)
	c.auditor.Drain()
	obs.RecordBatch(c.ring, events, c.clk.Now())
	c.engineM.observe(events)
	c.pending.reset()
}

// snapshot returns the cached placement snapshot, capturing it under the
// write lock when a mutation has invalidated it. The returned value is
// immutable and safe to read without holding any lock.
func (c *Controller) snapshot() *trace.Snapshot {
	c.mu.RLock()
	snap := c.snap
	c.mu.RUnlock()
	if snap == nil {
		c.mu.Lock()
		if c.snap == nil {
			s := trace.Capture(c.alg.Placement())
			c.snap = &s
		}
		snap = c.snap
		c.mu.Unlock()
	}
	return snap
}

// clonePlacement rebuilds an independent placement from the snapshot so
// exhaustive failure drills run without holding the controller lock: a
// long computation on a large fleet must not stall admissions behind
// Go's writer-preferring RWMutex. Taking the
// snapshot can stall them, though: when a mutation has dropped the cached
// one, snapshot captures a new one under the write lock, 188 ms at 250k
// tenants (see ROADMAP.md item 8).
func (c *Controller) clonePlacement() (*packing.Placement, error) {
	return trace.Restore(*c.snapshot())
}

// serverSummary is the per-server row of GET /v1/servers.
type serverSummary struct {
	ID       int     `json:"id"`
	Level    float64 `json:"level"`
	Replicas int     `json:"replicas"`
	Reserve  float64 `json:"reserve"`
	Clients  int     `json:"clients"`
}

func (c *Controller) handleServers(w http.ResponseWriter, _ *http.Request) {
	c.mu.RLock()
	p := c.alg.Placement()
	out := make([]serverSummary, 0, p.NumServers())
	k := p.Gamma() - 1
	for _, s := range p.Servers() {
		clients := 0
		for _, r := range s.Replicas() {
			clients += r.Clients
		}
		out = append(out, serverSummary{
			ID:       s.ID(),
			Level:    s.Level(),
			Replicas: s.NumReplicas(),
			Reserve:  s.TopShared(k),
			Clients:  clients,
		})
	}
	c.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// statsResponse is GET /v1/stats.
type statsResponse struct {
	Algorithm   string  `json:"algorithm"`
	Gamma       int     `json:"gamma"`
	Tenants     int     `json:"tenants"`
	Servers     int     `json:"servers"`
	UsedServers int     `json:"usedServers"`
	TotalLoad   float64 `json:"totalLoad"`
	Utilization float64 `json:"utilization"`
}

func (c *Controller) handleStats(w http.ResponseWriter, _ *http.Request) {
	c.mu.RLock()
	p := c.alg.Placement()
	resp := statsResponse{
		Algorithm:   c.alg.Name(),
		Gamma:       p.Gamma(),
		Tenants:     p.NumTenants(),
		Servers:     p.NumServers(),
		UsedServers: p.NumUsedServers(),
		TotalLoad:   p.TotalLoad(),
		Utilization: p.Utilization(),
	}
	c.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (c *Controller) handleValidate(w http.ResponseWriter, _ *http.Request) {
	c.mu.RLock()
	err := c.alg.Placement().Validate()
	c.mu.RUnlock()
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]any{"robust": false, "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"robust": true})
}

// drillRequest asks for a worst-case failure analysis.
type drillRequest struct {
	Failures int `json:"failures"`
}

// drillResponse reports the worst-case plan.
type drillResponse struct {
	Failures       int     `json:"failures"`
	FailedServers  []int   `json:"failedServers"`
	MaxClientLoad  float64 `json:"maxClientLoad"`
	MaxServer      int     `json:"maxServer"`
	LostClients    int     `json:"lostClients"`
	ClientCapacity int     `json:"clientCapacity"`
	WorstLoad      float64 `json:"worstLoad"`
}

func (c *Controller) handleDrill(w http.ResponseWriter, r *http.Request) {
	var req drillRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error()})
		return
	}
	if req.Failures < 0 {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("failures %d must be non-negative", req.Failures)})
		return
	}
	// WorstCase is exhaustive; run it on a lock-free clone so the drill
	// itself holds no lock (capturing a stale snapshot still takes the
	// write lock; see clonePlacement).
	p, err := c.clonePlacement()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	plan, err := failure.WorstCase(p, req.Failures)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, drillResponse{
		Failures:       req.Failures,
		FailedServers:  plan.Servers,
		MaxClientLoad:  plan.MaxClientLoad,
		MaxServer:      plan.MaxServer,
		LostClients:    plan.LostClients,
		ClientCapacity: workload.MaxClientsPerServer,
		WorstLoad:      p.MaxPostFailureLoad(plan.Servers),
	})
}

// queryNonNegInt parses an optional non-negative integer query parameter,
// answering def when absent. A negative or non-numeric value is a client
// error: it writes a 400 and reports ok=false instead of silently
// coercing.
func queryNonNegInt(w http.ResponseWriter, r *http.Request, name string, def int) (v int, ok bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid " + name + " " + raw})
		return 0, false
	}
	return v, true
}

func pathID(w http.ResponseWriter, r *http.Request) (packing.TenantID, bool) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid tenant id " + raw})
		return 0, false
	}
	return packing.TenantID(id), true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors at this point cannot be reported to the client.
	_ = json.NewEncoder(w).Encode(v)
}
