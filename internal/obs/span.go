package obs

import "sync"

// Span is one admission's journey through the batched admission pipeline
// (internal/api): monotonic nanosecond timestamps stamped at each pipeline
// boundary, carrying the group-commit identity so one fsync's cost is
// attributable across the N admissions it covered. Timestamps are relative
// to an arbitrary per-process monotonic base — only differences are
// meaningful — which keeps the span layer off the wall clock and the
// `wallclock` analyzer quiet.
//
// The canonical stage decomposition telescopes exactly, so the five stage
// durations always sum to the end-to-end total:
//
//	queue  EnqueueNs     → DequeueNs      waiting on the bounded queue
//	place  DequeueNs     → PlaceEndNs     in the placer batch (in-batch
//	                                      wait + the engine's Place call;
//	                                      EngineNs isolates the latter)
//	wal    PlaceEndNs    → CommitStartNs  batch tail work before the group
//	                                      commit: the batch's later items,
//	                                      then the mutation's delivery
//	                                      (log encode, re-audit of the
//	                                      touched servers, event ring and
//	                                      engine metrics)
//	fsync  CommitStartNs → CommitEndNs    the WAL group commit (flush+fsync)
//	ack    CommitEndNs   → AckNs          future hand-off back to the
//	                                      waiting handler
//
// A span whose admission skipped a boundary (no WAL attached, item
// pre-rejected before the engine) leaves the corresponding timestamps
// zero; Normalize fills them forward so the skipped stages read as zero
// duration and the telescoping identity still holds.
type Span struct {
	Tenant int `json:"tenant"`
	// Status is the final per-item HTTP status (201, 400, 409, 422, 503).
	Status int `json:"status"`
	// Batch marks spans that arrived via POST /v1/tenants:batch.
	Batch bool `json:"batch,omitempty"`
	// Commit is the group-commit sequence number whose fsync this span
	// waited on (0 when no WAL commit covered the batch), and Group is the
	// number of engine admissions that commit made durable — FsyncNs/Group
	// is the amortized per-admission fsync cost.
	Commit uint64 `json:"commit,omitempty"`
	Group  int    `json:"group,omitempty"`

	EnqueueNs     int64 `json:"enqueueNs"`
	DequeueNs     int64 `json:"dequeueNs"`
	PlaceStartNs  int64 `json:"placeStartNs"`
	PlaceEndNs    int64 `json:"placeEndNs"`
	CommitStartNs int64 `json:"commitStartNs"`
	CommitEndNs   int64 `json:"commitEndNs"`
	AckNs         int64 `json:"ackNs"`
}

// Normalize fills unstamped (zero) timestamps forward from the previous
// boundary so every stage is well-defined and the stage durations
// telescope to TotalNs. It is idempotent.
//
//cubefit:hotpath
func (s *Span) Normalize() {
	if s.DequeueNs == 0 {
		s.DequeueNs = s.EnqueueNs
	}
	if s.PlaceStartNs == 0 {
		s.PlaceStartNs = s.DequeueNs
	}
	if s.PlaceEndNs == 0 {
		s.PlaceEndNs = s.PlaceStartNs
	}
	if s.CommitStartNs == 0 {
		s.CommitStartNs = s.PlaceEndNs
	}
	if s.CommitEndNs == 0 {
		s.CommitEndNs = s.CommitStartNs
	}
	if s.AckNs == 0 {
		s.AckNs = s.CommitEndNs
	}
}

// QueueNs is the time spent waiting on the bounded admission queue.
func (s *Span) QueueNs() int64 { return s.DequeueNs - s.EnqueueNs }

// PlaceNs is the time spent inside the placer's coalesced batch up to the
// end of this item's engine call (in-batch wait included; EngineNs
// isolates the engine call itself).
func (s *Span) PlaceNs() int64 { return s.PlaceEndNs - s.DequeueNs }

// EngineNs is the engine's own Place call, a sub-component of PlaceNs.
func (s *Span) EngineNs() int64 { return s.PlaceEndNs - s.PlaceStartNs }

// WalNs is the batch tail between this item's placement and the group
// commit starting: the batch's later items, then the delivery of the
// mutation's events (the controller's mutatedLocked): the log's encode,
// the re-audit of the servers it touched, the event ring and the engine
// metrics.
func (s *Span) WalNs() int64 { return s.CommitStartNs - s.PlaceEndNs }

// FsyncNs is the WAL group commit (flush + fsync) the span waited on.
func (s *Span) FsyncNs() int64 { return s.CommitEndNs - s.CommitStartNs }

// AckLatencyNs is the hand-off from commit completion back to the waiting
// handler goroutine.
func (s *Span) AckLatencyNs() int64 { return s.AckNs - s.CommitEndNs }

// CommitNs is WalNs+FsyncNs: everything between placement end and durable.
func (s *Span) CommitNs() int64 { return s.CommitEndNs - s.PlaceEndNs }

// TotalNs is the end-to-end enqueue→ack latency. On a normalized span it
// equals QueueNs+PlaceNs+WalNs+FsyncNs+AckLatencyNs exactly.
func (s *Span) TotalNs() int64 { return s.AckNs - s.EnqueueNs }

// SpanRecorder consumes completed admission spans. Implementations must be
// safe for concurrent use: spans complete on the handler goroutines.
type SpanRecorder interface {
	RecordSpan(Span)
}

// spanPool recycles Span structs for the admission pipeline: a traced
// admission carries a pooled span through the queue, records it by value
// on completion, and releases the struct, so steady-state tracing
// allocates no span headers.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// AcquireSpan returns a zeroed pooled span. Release it with ReleaseSpan
// after recording.
//
//cubefit:hotpath
func AcquireSpan() *Span {
	s := spanPool.Get().(*Span)
	*s = Span{}
	return s
}

// ReleaseSpan returns s to the pool. Recorders received the span by value,
// so the pooled struct holds no aliased state.
//
//cubefit:hotpath
func ReleaseSpan(s *Span) {
	spanPool.Put(s)
}
