package obs

import (
	"sync"
	"time"
)

// Ring is a bounded in-memory store keeping the most recent values and
// counting every value it was ever given. It is safe for concurrent use
// and allocation-free once warm.
type Ring[T any] struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	buf []T
	//cubefit:guarded-by mu
	total uint64
}

// NewRing returns a ring holding up to capacity values (at least 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, max(capacity, 1))}
}

// Add appends v, overwriting the oldest value when full.
//
//cubefit:hotpath
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	*r.nextLocked() = v
	r.mu.Unlock()
}

// nextLocked counts one more value and returns the slot it goes into:
// the next free one, or the oldest once the ring is full.
func (r *Ring[T]) nextLocked() *T {
	i := r.total % uint64(cap(r.buf))
	if len(r.buf) < cap(r.buf) {
		r.buf = r.buf[:i+1]
	}
	r.total++
	return &r.buf[i]
}

// RecordBatch appends a batch of events to r in order, under one lock.
// Each stored event gets the next sequence number of the ring's running
// total (the first event ever recorded is 1) and the batch's one time;
// events keeps its own values.
func RecordBatch(r *Ring[Event], events []Event, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range events {
		slot := r.nextLocked()
		*slot = events[i]
		slot.Seq, slot.Time = r.total, at
	}
}

// Total returns the number of values ever added, including evicted ones.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n of the most recent values, oldest first (all
// retained values when n is negative or exceeds the retention).
func (r *Ring[T]) Last(n int) []T {
	_, out := r.Snapshot(n)
	return out
}

// Snapshot returns the all-time total together with up to n of the most
// recent values, read under one lock acquisition so the pair is mutually
// consistent even while writers are adding.
func (r *Ring[T]) Snapshot(n int) (total uint64, last []T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	stored := len(r.buf)
	if n < 0 || n > stored {
		n = stored
	}
	last = make([]T, 0, n)
	// The oldest retained value sits at total%cap once the buffer wrapped.
	start := 0
	if stored == cap(r.buf) {
		start = int(r.total % uint64(cap(r.buf)))
	}
	for i := stored - n; i < stored; i++ {
		last = append(last, r.buf[(start+i)%stored])
	}
	return r.total, last
}
