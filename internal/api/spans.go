package api

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cubefit/internal/clock"
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
	"cubefit/internal/stats"
	"cubefit/internal/telemetry"
)

// Pipeline span tracing: every admission travelling the batched pipeline
// carries a pooled obs.Span stamped at each boundary (enqueue, dequeue,
// placement start/end, group-commit start/end, ack) plus the group-commit
// identity, so one fsync's cost is attributable across the N admissions it
// committed. The tracer folds completed spans into per-stage latency
// histograms and queue/commit gauges on /metrics, keeps a bounded sample
// window and recent-commit ring behind GET /debug/pipeline, and forwards
// spans to an optional external sink (span JSONL for offline analysis via
// `cubefit-inspect latency`). The whole layer is allocation-free in steady
// state — pooled spans, pre-resolved histogram children, fixed rings — per
// the hotpath discipline, and is stamped through the clock seam so only
// monotonic differences ever leave it.

// spanStageNames are the canonical telescoping stages exported to the
// cubefit_pipeline_stage_duration_seconds histogram, in stamp order.
var spanStageNames = [...]string{"queue", "place", "wal", "fsync", "ack"}

// pipelineStageBuckets resolve the microsecond-scale pipeline stages that
// DefaultLatencyBuckets (built for whole requests) would flatten into the
// first bucket (seconds).
var pipelineStageBuckets = []float64{
	0.000001, //cubefit:vet-allow epsconst -- 1µs histogram bucket bound, not a tolerance
	0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

const (
	// pipelineSpanWindow bounds the in-memory span sample behind the
	// /debug/pipeline stage percentiles.
	pipelineSpanWindow = 4096
	// pipelineCommitWindow bounds the recent group-commit ring.
	pipelineCommitWindow = 64
)

// commitRecord is one completed WAL group commit as reported by
// GET /debug/pipeline.
type commitRecord struct {
	ID uint64 `json:"id"`
	// Size is the number of engine admissions the commit made durable.
	Size    int   `json:"size"`
	FsyncNs int64 `json:"fsyncNs"`
	// EndNs is the commit's completion timestamp on the tracer's monotonic
	// scale (comparable to span timestamps).
	EndNs  int64 `json:"endNs"`
	Failed bool  `json:"failed,omitempty"`
}

// pipelineTracer owns the span lifecycle around the admission pipeline.
// Its stamp methods are called from the handler goroutines (enqueue, ack)
// and the single placer goroutine (dequeue, placement, commit); all shared
// state is behind atomics or its own short mutexes, never the controller
// lock.
type pipelineTracer struct {
	clk clock.Clock
	// base anchors the monotonic nanosecond scale every span timestamp is
	// relative to.
	base time.Time
	ring *obs.Ring[obs.Span]
	// sink, when attached, receives every completed span after the ring
	// and histograms (WithSpanSink).
	sink obs.SpanRecorder

	// stageHist holds the pre-resolved histogram children for
	// spanStageNames, so the hot finish path never touches the vec's map.
	stageHist  [len(spanStageNames)]*metrics.Histogram
	queueDepth *metrics.Gauge
	oldestWait *metrics.FGauge
	// resolved counts the jobs the placer resolved, whatever their
	// outcome: the stall watchdog's progress series.
	resolved  *metrics.Counter
	commits   *metrics.Counter
	fsyncHist *metrics.Histogram
	sizeHist  *metrics.Histogram

	enqueuedJobs atomic.Uint64
	dequeuedJobs atomic.Uint64
	commitSeq    atomic.Uint64
	// recent holds the last group commits behind GET /debug/pipeline.
	recent *obs.Ring[commitRecord]

	// Waiter FIFO mirroring the job queue: enqueue timestamps pushed by
	// producers, popped by the placer, so the oldest waiter's age is
	// readable without peeking into the channel.
	wmu sync.Mutex
	//cubefit:guarded-by wmu
	waitbuf []int64
	//cubefit:guarded-by wmu
	whead int
	//cubefit:guarded-by wmu
	wlen int
}

func newPipelineTracer(r *metrics.Registry, clk clock.Clock, sink obs.SpanRecorder) *pipelineTracer {
	t := &pipelineTracer{
		clk:    clk,
		base:   clk.Now(),
		ring:   obs.NewRing[obs.Span](pipelineSpanWindow),
		recent: obs.NewRing[commitRecord](pipelineCommitWindow),
		sink:   sink,
		queueDepth: r.NewGauge("cubefit_pipeline_queue_depth",
			"Admission jobs waiting on the pipeline queue."),
		oldestWait: r.NewFGauge("cubefit_pipeline_oldest_wait_seconds",
			"Queue wait of the oldest pending admission job at the last enqueue/dequeue."),
		resolved: r.NewCounter(telemetry.SeriesPlaceProgress,
			"Pipeline jobs (admission requests and departures) the placer resolved, whatever their outcome."),
		commits: r.NewCounter("cubefit_pipeline_commits_total",
			"WAL group commits performed by the placer."),
		fsyncHist: r.NewHistogram("cubefit_pipeline_commit_fsync_seconds",
			"WAL group-commit flush+fsync duration.", pipelineStageBuckets...),
		sizeHist: r.NewHistogram("cubefit_pipeline_commit_size",
			"Engine admissions covered by one WAL group commit.",
			1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
		waitbuf: make([]int64, admitQueueDepth),
	}
	vec := r.NewHistogramVec("cubefit_pipeline_stage_duration_seconds",
		"Admission pipeline stage latency (stages telescope to the end-to-end total).",
		[]string{"stage"}, pipelineStageBuckets...)
	for i, name := range spanStageNames {
		t.stageHist[i] = vec.With(name)
	}
	return t
}

// now returns the tracer's monotonic timestamp in nanoseconds.
//
//cubefit:hotpath
func (t *pipelineTracer) now() int64 {
	return t.clk.Since(t.base).Nanoseconds()
}

// enqueued stamps EnqueueNs on the job's spans and registers the job with
// the waiter FIFO. depth is the queue depth observed at submission.
//
//cubefit:hotpath
func (t *pipelineTracer) enqueued(job *admitJob, depth int) {
	ns := t.now()
	for i := range job.items {
		if sp := job.items[i].span; sp != nil {
			sp.EnqueueNs = ns
		}
	}
	t.enqueuedJobs.Add(1)
	t.pushWaiter(ns)
	t.queueDepth.Set(int64(depth))
}

// dequeued stamps DequeueNs on every span of the coalesced batch and pops
// the batch's jobs off the waiter FIFO. depth is the queue depth after the
// coalesce.
//
//cubefit:hotpath
func (t *pipelineTracer) dequeued(jobs []*admitJob, depth int) {
	ns := t.now()
	for _, job := range jobs {
		for i := range job.items {
			if sp := job.items[i].span; sp != nil {
				sp.DequeueNs = ns
			}
		}
	}
	t.dequeuedJobs.Add(uint64(len(jobs)))
	t.popWaiters(len(jobs), ns)
	t.queueDepth.Set(int64(depth))
}

// finish completes a span on its handler goroutine: stamp the ack,
// normalize, fold the five stage durations into the histograms, retain it
// in the sample ring, forward it to the external sink, and return the
// struct to the pool.
//
//cubefit:hotpath
func (t *pipelineTracer) finish(sp *obs.Span) {
	sp.AckNs = t.now()
	sp.Normalize()
	t.stageHist[0].Observe(float64(sp.QueueNs()) / 1e9)
	t.stageHist[1].Observe(float64(sp.PlaceNs()) / 1e9)
	t.stageHist[2].Observe(float64(sp.WalNs()) / 1e9)
	t.stageHist[3].Observe(float64(sp.FsyncNs()) / 1e9)
	t.stageHist[4].Observe(float64(sp.AckLatencyNs()) / 1e9)
	t.ring.Add(*sp)
	if t.sink != nil {
		t.sink.RecordSpan(*sp)
	}
	obs.ReleaseSpan(sp)
}

// nextCommit allocates the next group-commit sequence number (first
// commit is 1, so span.Commit==0 still means "no commit").
func (t *pipelineTracer) nextCommit() uint64 {
	return t.commitSeq.Add(1)
}

// commitDone records one completed group commit.
func (t *pipelineTracer) commitDone(id uint64, size int, fsyncNs, endNs int64, failed bool) {
	t.commits.Inc()
	t.fsyncHist.Observe(float64(fsyncNs) / 1e9)
	t.sizeHist.Observe(float64(size))
	t.recent.Add(commitRecord{ID: id, Size: size, FsyncNs: fsyncNs, EndNs: endNs, Failed: failed})
}

// pushWaiter appends an enqueue timestamp to the waiter FIFO and refreshes
// the oldest-wait gauge. The buffer starts at the queue depth and grows
// only if blocked producers ever outnumber it.
func (t *pipelineTracer) pushWaiter(ns int64) {
	t.wmu.Lock()
	if t.wlen == len(t.waitbuf) {
		grown := make([]int64, 2*len(t.waitbuf))
		for i := 0; i < t.wlen; i++ {
			grown[i] = t.waitbuf[(t.whead+i)%len(t.waitbuf)]
		}
		t.waitbuf = grown
		t.whead = 0
	}
	t.waitbuf[(t.whead+t.wlen)%len(t.waitbuf)] = ns
	t.wlen++
	oldest := t.waitbuf[t.whead]
	t.wmu.Unlock()
	t.oldestWait.Set(float64(ns-oldest) / 1e9)
}

// popWaiters drops the n oldest waiter entries and refreshes the
// oldest-wait gauge as of ns.
func (t *pipelineTracer) popWaiters(n int, ns int64) {
	t.wmu.Lock()
	if n > t.wlen {
		n = t.wlen
	}
	t.whead = (t.whead + n) % len(t.waitbuf)
	t.wlen -= n
	wait := int64(0)
	if t.wlen > 0 {
		wait = ns - t.waitbuf[t.whead]
	}
	t.wmu.Unlock()
	t.oldestWait.Set(float64(wait) / 1e9)
}

// oldestWaitNs returns the live queue wait of the oldest pending job (0
// when the queue is empty).
func (t *pipelineTracer) oldestWaitNs(ns int64) int64 {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.wlen == 0 {
		return 0
	}
	return ns - t.waitbuf[t.whead]
}

// pipelineQueueStatus is the live queue state of GET /debug/pipeline.
type pipelineQueueStatus struct {
	Depth        int    `json:"depth"`
	Capacity     int    `json:"capacity"`
	OldestWaitNs int64  `json:"oldestWaitNs"`
	EnqueuedJobs uint64 `json:"enqueuedJobs"`
	DequeuedJobs uint64 `json:"dequeuedJobs"`
}

// pipelineStageSummary is one stage's latency summary over the span
// sample window, in nanoseconds.
type pipelineStageSummary struct {
	P50Ns  float64 `json:"p50Ns"`
	P90Ns  float64 `json:"p90Ns"`
	P99Ns  float64 `json:"p99Ns"`
	MaxNs  float64 `json:"maxNs"`
	MeanNs float64 `json:"meanNs"`
}

// pipelineSpansStatus summarizes the retained span window. Stages holds
// the five telescoping stages (queue, place, wal, fsync, ack) plus the
// derived overlays engine (the Place call inside the place stage), commit
// (wal+fsync), and total (end to end).
type pipelineSpansStatus struct {
	Total  uint64                          `json:"total"`
	Window int                             `json:"window"`
	Stages map[string]pipelineStageSummary `json:"stages"`
}

// pipelineCommitsStatus reports the recent WAL group commits.
type pipelineCommitsStatus struct {
	Total  uint64         `json:"total"`
	Recent []commitRecord `json:"recent"`
}

// pipelineResponse is GET /debug/pipeline.
type pipelineResponse struct {
	Tracing bool                  `json:"tracing"`
	Queue   pipelineQueueStatus   `json:"queue"`
	Spans   pipelineSpansStatus   `json:"spans"`
	Commits pipelineCommitsStatus `json:"commits"`
}

// stageSummaries computes per-stage percentiles over the span window.
// The stage set is obs.StageExtractors, shared with `cubefit-inspect
// latency` and the telemetry sampler.
func stageSummaries(spans []obs.Span) map[string]pipelineStageSummary {
	out := make(map[string]pipelineStageSummary, len(obs.StageExtractors))
	if len(spans) == 0 {
		return out
	}
	vals := make([]float64, len(spans))
	for _, st := range obs.StageExtractors {
		var sum, max float64
		for i := range spans {
			v := float64(st.Ns(&spans[i]))
			vals[i] = v
			sum += v
			if v > max {
				max = v
			}
		}
		p50, _ := stats.PercentileInPlace(vals, 50)
		p90, _ := stats.PercentileInPlace(vals, 90)
		p99, _ := stats.P99InPlace(vals)
		out[st.Name] = pipelineStageSummary{
			P50Ns: p50, P90Ns: p90, P99Ns: p99,
			MaxNs: max, MeanNs: sum / float64(len(spans)),
		}
	}
	return out
}

func (c *Controller) handlePipeline(w http.ResponseWriter, r *http.Request) {
	window, ok := queryNonNegInt(w, r, "spans", pipelineSpanWindow)
	if !ok {
		return
	}
	nCommits, ok := queryNonNegInt(w, r, "commits", 16)
	if !ok {
		return
	}
	t := c.tracer
	spans := t.ring.Last(window)
	total, recent := t.recent.Snapshot(nCommits)
	writeJSON(w, http.StatusOK, pipelineResponse{
		Tracing: true,
		Queue: pipelineQueueStatus{
			Depth:        len(c.queue),
			Capacity:     admitQueueDepth,
			OldestWaitNs: t.oldestWaitNs(t.now()),
			EnqueuedJobs: t.enqueuedJobs.Load(),
			DequeuedJobs: t.dequeuedJobs.Load(),
		},
		Spans: pipelineSpansStatus{
			Total:  t.ring.Total(),
			Window: len(spans),
			Stages: stageSummaries(spans),
		},
		Commits: pipelineCommitsStatus{Total: total, Recent: recent},
	})
}
