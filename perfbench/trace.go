package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubefit/internal/api"
	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/workload"
)

// The traced pass times each layer from outside, through wrappers around
// the service's public seams: the engine (packing.Algorithm), the recorder
// chain it is handed, the commit log, the HTTP handler, a span sink, and
// the calls recovery.FromFile is made of. It adds nothing to the program.
//
// Spans stay in memory until the run ends. Engine and recorder calls are
// keyed by tenant id, HTTP spans by the client's request number, and a
// Sync span is shared by every request it commits, so it has no parent.

// tracePhase says which part of a run a call belongs to.
type tracePhase int32

const (
	inSetup tracePhase = iota
	inMeasured
	// inCheck covers the end-of-phase checks, which no layer metric counts.
	inCheck
)

type spanName uint8

const (
	spClient spanName = iota
	spHandler
	spPlace
	spRemove
	spRecord
	spWALRecord
	spWALSync
	spRead
	spRebuild
	spVerify
	spBoot
)

var spanNames = [...]string{
	spClient:    "client.request",
	spHandler:   "api.handler",
	spPlace:     "core.place",
	spRemove:    "core.remove",
	spRecord:    "obs.record",
	spWALRecord: "obs.wal_record",
	spWALSync:   "obs.wal_sync",
	spRead:      "recovery.read",
	spRebuild:   "recovery.rebuild",
	spVerify:    "recovery.verify",
	spBoot:      "api.boot",
}

// span is one timed call. start and end are nanoseconds since the tracer
// started; parent indexes the causing span in the same buffer, or is -1.
type span struct {
	start, end int64
	id         int64
	parent     int32
	name       spanName
}

// spanBuf keeps spans up to its capacity and counts the rest.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(capacity int) spanBuf { return spanBuf{spans: make([]span, 0, capacity)} }

func (b *spanBuf) add(s span) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, s)
	return int32(len(b.spans) - 1)
}

// phaseSpans holds one phase's spans: the engine path's and the rest
// (client, handler, sync and boot spans).
type phaseSpans struct{ eng, io spanBuf }

// spanCaps bound each phase's stored spans, engine and other, so the
// measured phase always has its own: about 13 MB in memory and a span
// file of about 30 MB in all. Spans past a bound are not kept but still
// count in every layer metric.
var spanCaps = [...][2]int{
	inSetup:    {1 << 16, 1 << 14},
	inMeasured: {1 << 18, 1 << 16},
	inCheck:    {1 << 8, 1 << 8},
}

// engineAgg is the engine-path tally of one phase.
type engineAgg struct {
	calls, total, nested int64 // per spPlace / spRemove
}

// layerAgg is everything one phase contributes to the layer metrics.
type layerAgg struct {
	engine               [2]engineAgg // place, remove
	recordNs, records    int64        // recorder chain, nested in the engine
	walRecordNs, walRecs int64        // the log's Record, nested in the chain
	probes, admits       int64
	firstStage           int64

	// Under tracer.mu.
	handlers []handlerRec
	clients  []clientRec
	pipeline []pipeRec
	syncUs   []float64
	read     []float64 // seconds, one per boot
	rebuild  []float64
	verify   []float64
	boot     []float64
}

type handlerRec struct {
	seq   int64
	ns    int64
	route string
}

type clientRec struct {
	seq   int64
	rtNs  int64
	first int64
	n     int32
	kind  reqKind
}

type pipeRec struct {
	tenant         int64
	queueNs, walNs int64
	totalNs, engNs int64
}

// tracer owns the wrappers' shared state. The engine-path fields are
// touched only from inside engine calls, which the controller serializes
// under its write lock exactly as CubeFit requires of any caller; the rest
// is behind mu.
type tracer struct {
	base  time.Time
	phase atomic.Int32
	reqs  atomic.Int64
	syncs atomic.Int64

	// Engine path. eng is the open engine call's phase buffer; curEngine
	// and curRecord index the open spans in it, -1 when not stored.
	eng                  *spanBuf
	curEngine, curRecord int32
	// nested is the recorder time inside the open engine call.
	nested int64
	aggs   [2]layerAgg // setup, measured

	mu sync.Mutex
	// spans is indexed by phase; the engine buffers belong to the engine
	// path, the others are under mu.
	spans [len(spanCaps)]phaseSpans

	// fromFile holds one timed recovery.FromFile per traced restart boot,
	// on the same log, the reference the recovery steps reconcile against.
	fromFile []float64
}

func newTracer() *tracer {
	t := &tracer{base: wallNow(), curEngine: -1, curRecord: -1}
	for p, c := range spanCaps {
		t.spans[p] = phaseSpans{eng: newSpanBuf(c[0]), io: newSpanBuf(c[1])}
	}
	t.eng = &t.spans[inSetup].eng
	return t
}

func (t *tracer) now() int64 { return wallNow().Sub(t.base).Nanoseconds() }

// setPhase is a no-op on a nil tracer, so untraced runs share the code.
func (t *tracer) setPhase(p tracePhase) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

// ioBuf returns the current phase's non-engine span buffer; the caller
// holds mu.
func (t *tracer) ioBuf() *spanBuf { return &t.spans[t.phase.Load()].io }

// agg returns the current phase's tally, nil during checks.
func (t *tracer) agg() *layerAgg {
	p := tracePhase(t.phase.Load())
	if p == inCheck {
		return nil
	}
	return &t.aggs[p]
}

func (t *tracer) nextReq() int64 { return t.reqs.Add(1) }

func (t *tracer) clientDone(seq int64, kind reqKind, first packing.TenantID, n int, start time.Time, rt time.Duration) {
	s := span{start: start.Sub(t.base).Nanoseconds(), id: seq, parent: -1, name: spClient}
	s.end = s.start + rt.Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ioBuf().add(s)
	if a := t.agg(); a != nil {
		a.clients = append(a.clients, clientRec{seq: seq, rtNs: rt.Nanoseconds(), first: int64(first), n: int32(n), kind: kind})
	}
}

// handler times every request inside ctrl.Handler().
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		seq, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.ioBuf().add(span{start: start, end: end, id: seq, parent: -1, name: spHandler})
		if a := t.agg(); a != nil {
			a.handlers = append(a.handlers, handlerRec{seq: seq, ns: end - start, route: route(r)})
		}
	})
}

// route names a request by the controller's route names.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/tenants":
		return "place"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/tenants:batch":
		return "place_batch"
	case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/tenants/"):
		return "remove_tenant"
	case r.URL.Path == "/v1/stats":
		return "stats"
	case r.URL.Path == "/v1/validate":
		return "validate"
	}
	return "other"
}

func isMutation(route string) bool {
	return route == "place" || route == "place_batch" || route == "remove_tenant"
}

// RecordSpan is the span sink handed to api.WithSpanSink.
func (t *tracer) RecordSpan(s obs.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg(); a != nil {
		a.pipeline = append(a.pipeline, pipeRec{
			tenant: int64(s.Tenant), queueNs: s.QueueNs(), walNs: s.WalNs(),
			totalNs: s.TotalNs(), engNs: s.EngineNs(),
		})
	}
}

// algorithm wraps the recovered engine for the controller.
func (t *tracer) algorithm(cf *core.CubeFit) packing.Algorithm { return &tracedAlg{cf: cf, t: t} }

// commitLog wraps the opened log for the controller.
func (t *tracer) commitLog(w *obs.WAL) obs.CommitLog { return &tracedLog{wal: w, t: t} }

// newController times api.NewController over the recovered engine.
func (t *tracer) newController(alg packing.Algorithm, opts []api.Option) (*api.Controller, error) {
	start := t.now()
	ctrl, err := api.NewController(alg, workload.DefaultLoadModel(), opts...)
	t.ioSpan(spBoot, start, 0, func(a *layerAgg, s float64) { a.boot = append(a.boot, s) })
	return ctrl, err
}

// ioSpan stores a span ending now under mu and hands its duration in
// seconds to fold.
func (t *tracer) ioSpan(name spanName, start, id int64, fold func(*layerAgg, float64)) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ioBuf().add(span{start: start, end: end, id: id, parent: -1, name: name})
	if a := t.agg(); a != nil {
		fold(a, float64(end-start)/1e9)
	}
}

// recoverFromFile is recovery.FromFile made of the same public calls,
// each timed: read the log, rebuild the engine, verify it.
func (t *tracer) recoverFromFile(path string, cfg core.Config) (*core.CubeFit, recovery.Stats, error) {
	start := t.now()
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		cf, nerr := core.New(cfg)
		return cf, recovery.Stats{}, nerr
	}
	if err != nil {
		return nil, recovery.Stats{}, err
	}
	events, ends, torn, err := obs.ReadWALOffsets(f)
	//cubefit:vet-allow failclosed -- handle opened read-only; closing it cannot lose data
	_ = f.Close()
	t.ioSpan(spRead, start, 0, func(a *layerAgg, s float64) { a.read = append(a.read, s) })
	if err != nil {
		return nil, recovery.Stats{}, err
	}
	start = t.now()
	cf, st, err := recovery.Rebuild(events, cfg)
	t.ioSpan(spRebuild, start, 0, func(a *layerAgg, s float64) { a.rebuild = append(a.rebuild, s) })
	if err != nil {
		return nil, recovery.Stats{}, err
	}
	st.Torn = torn
	if st.Events > 0 {
		st.CommittedBytes = ends[st.Events-1]
	}
	start = t.now()
	err = recovery.Verify(cf, events)
	t.ioSpan(spVerify, start, 0, func(a *layerAgg, s float64) { a.verify = append(a.verify, s) })
	if err != nil {
		return nil, recovery.Stats{}, err
	}
	return cf, st, nil
}

// timeFromFile times recovery.FromFile itself on a log, the reference the
// traced recovery steps reconcile against. It runs outside any phase.
func (t *tracer) timeFromFile(path string) error {
	p := t.phase.Swap(int32(inCheck))
	defer t.phase.Store(p)
	start := wallNow()
	if _, _, err := recovery.FromFile(path, engineConfig); err != nil {
		return err
	}
	t.fromFile = append(t.fromFile, wallNow().Sub(start).Seconds())
	return nil
}

// tracedAlg is the engine seam: it forwards everything to CubeFit and
// times Place and Remove. Like CubeFit it is not safe for concurrent use.
type tracedAlg struct {
	cf *core.CubeFit
	t  *tracer
}

func (a *tracedAlg) Name() string                                 { return a.cf.Name() }
func (a *tracedAlg) Placement() *packing.Placement                { return a.cf.Placement() }
func (a *tracedAlg) SetAdmissionHook(fn func(core.AdmissionPath)) { a.cf.SetAdmissionHook(fn) }

// SetRecorder hands CubeFit the controller's recorder chain behind a
// timing wrapper.
func (a *tracedAlg) SetRecorder(r obs.Recorder) {
	if r == nil {
		a.cf.SetRecorder(nil)
		return
	}
	a.cf.SetRecorder(&tracedRecorder{next: r, t: a.t})
}

func (a *tracedAlg) Place(tn packing.Tenant) error {
	start := a.t.beginEngine(spPlace, int64(tn.ID))
	err := a.cf.Place(tn)
	a.t.endEngine(spPlace, start)
	return err
}

func (a *tracedAlg) Remove(id packing.TenantID) error {
	start := a.t.beginEngine(spRemove, int64(id))
	err := a.cf.Remove(id)
	a.t.endEngine(spRemove, start)
	return err
}

func (t *tracer) beginEngine(name spanName, id int64) int64 {
	start := t.now()
	t.eng = &t.spans[t.phase.Load()].eng
	t.curEngine = t.eng.add(span{start: start, id: id, parent: -1, name: name})
	t.nested = 0
	return start
}

func (t *tracer) endEngine(name spanName, start int64) {
	end := t.now()
	if t.curEngine >= 0 {
		t.eng.spans[t.curEngine].end = end
	}
	if a := t.agg(); a != nil {
		e := &a.engine[name-spPlace]
		e.calls++
		e.total += end - start
		e.nested += t.nested
	}
	t.curEngine = -1
}

// tracedRecorder times the controller's recorder chain: stamp, event
// ring, engine metrics sink, headroom auditor and the log's Record.
type tracedRecorder struct {
	next obs.Recorder
	t    *tracer
}

func (r *tracedRecorder) Record(e obs.Event) {
	t := r.t
	start := t.now()
	t.curRecord = t.eng.add(span{start: start, id: int64(e.Tenant), parent: t.curEngine, name: spRecord})
	r.next.Record(e)
	end := t.now()
	if t.curRecord >= 0 {
		t.eng.spans[t.curRecord].end = end
	}
	t.curRecord = -1
	t.nested += end - start
	a := t.agg()
	if a == nil {
		return
	}
	a.recordNs += end - start
	a.records++
	switch e.Kind {
	case obs.KindStage1Probe:
		a.probes += int64(e.Probes)
	case obs.KindAdmit:
		a.admits++
		if e.Path == core.AdmitFirstStage.String() {
			a.firstStage++
		}
	}
}

// tracedLog is the commit-log seam around the single-file WAL.
type tracedLog struct {
	wal *obs.WAL
	t   *tracer
}

func (l *tracedLog) Record(e obs.Event) {
	t := l.t
	start := t.now()
	l.wal.Record(e)
	end := t.now()
	t.eng.add(span{start: start, end: end, id: int64(e.Tenant), parent: t.curRecord, name: spWALRecord})
	if a := t.agg(); a != nil {
		a.walRecordNs += end - start
		a.walRecs++
	}
}

func (l *tracedLog) Sync() error {
	start := l.t.now()
	err := l.wal.Sync()
	l.t.ioSpan(spWALSync, start, l.t.syncs.Add(1), func(a *layerAgg, s float64) { a.syncUs = append(a.syncUs, s*1e6) })
	return err
}

func (l *tracedLog) Err() error   { return l.wal.Err() }
func (l *tracedLog) Failed() bool { return l.wal.Failed() }
func (l *tracedLog) Close() error { return l.wal.Close() }

// writeSpans writes every stored span as JSON lines, phase by phase
// (set-up, measured, checks), each phase's HTTP, sync and boot spans
// before its engine spans. parent is the line number (from 0, after the
// header) of the causing span, or -1. An engine call's parent is the
// handler span of the request that carried its tenant.
func (t *tracer) writeSpans(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	// First pass: each buffer's first line, and the lines of the client
	// and handler spans by request number.
	var offsets [len(spanCaps)][2]int32
	clientAt, handlerAt := map[int64]int32{}, map[int64]int32{}
	line := int32(0)
	for p := range t.spans {
		for b, buf := range []*spanBuf{&t.spans[p].io, &t.spans[p].eng} {
			offsets[p][b] = line
			for i, s := range buf.spans {
				switch s.name {
				case spClient:
					clientAt[s.id] = line + int32(i)
				case spHandler:
					handlerAt[s.id] = line + int32(i)
				}
			}
			line += int32(len(buf.spans))
		}
	}
	stored, dropped := t.spanCounts()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"spans_stored":%d,"spans_dropped":%d,"clock":"ns since trace start"}`+"\n", stored, dropped)
	owner := t.requestOwner()
	phaseNames := [...]string{inSetup: "setup", inMeasured: "measured", inCheck: "check"}
	for p := range t.spans {
		for b, buf := range []*spanBuf{&t.spans[p].io, &t.spans[p].eng} {
			for _, s := range buf.spans {
				parent := int32(-1)
				switch {
				case s.parent >= 0:
					parent = s.parent + offsets[p][b]
				case s.name == spHandler:
					if c, ok := clientAt[s.id]; ok {
						parent = c
					}
				case s.name == spPlace || s.name == spRemove:
					kind := reqAdmit
					if s.name == spRemove {
						kind = reqDepart
					}
					if seq, ok := owner(kind, s.id); ok {
						if h, ok := handlerAt[seq]; ok {
							parent = h
						}
					}
				}
				fmt.Fprintf(w, `{"name":%q,"phase":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"id":%d}`+"\n",
					spanNames[s.name], phaseNames[p], s.start, s.end, parent, s.id)
			}
		}
	}
	return w.Flush()
}

// spanCounts returns the spans kept in memory and those dropped past the
// bounds.
func (t *tracer) spanCounts() (stored int, dropped int64) {
	for p := range t.spans {
		for _, buf := range []*spanBuf{&t.spans[p].io, &t.spans[p].eng} {
			stored += len(buf.spans)
			dropped += buf.dropped
		}
	}
	return stored, dropped
}

// requestOwner returns a lookup from a tenant to the client request that
// carried it. Requests carry contiguous id ranges.
func (t *tracer) requestOwner() func(reqKind, int64) (int64, bool) {
	var recs []clientRec
	for i := range t.aggs {
		recs = append(recs, t.aggs[i].clients...)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].kind != recs[j].kind {
			return recs[i].kind < recs[j].kind
		}
		return recs[i].first < recs[j].first
	})
	return func(kind reqKind, tenant int64) (int64, bool) {
		// The last request of this kind starting at or before tenant.
		i := sort.Search(len(recs), func(i int) bool {
			return recs[i].kind > kind || (recs[i].kind == kind && recs[i].first > tenant)
		}) - 1
		if i < 0 || recs[i].kind != kind || tenant >= recs[i].first+int64(recs[i].n) {
			return 0, false
		}
		return recs[i].seq, true
	}
}
