package obs

import (
	"sync"
	"time"
)

// Ring is a bounded in-memory store keeping the most recent events. It is
// safe for concurrent use; RecordBatch takes the lock once per batch.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	total uint64
}

// NewRing returns a ring buffer holding up to capacity events (at least 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// RecordBatch appends a batch of events in order, overwriting the oldest
// when full. Each stored event gets the next sequence number of the
// ring's running total (the first event ever recorded is 1) and the
// batch's one time; events keeps its own values.
func (r *Ring) RecordBatch(events []Event, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(cap(r.buf))
	for i := range events {
		var slot *Event
		if len(r.buf) < cap(r.buf) {
			r.buf = append(r.buf, events[i])
			slot = &r.buf[len(r.buf)-1]
		} else {
			slot = &r.buf[r.total%size]
			*slot = events[i]
		}
		r.total++
		slot.Seq = r.total
		slot.Time = at
	}
}

// Total returns the number of events ever recorded, including evicted ones.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	return r.Last(-1)
}

// Last returns up to n of the most recent events, oldest first (all
// retained events when n is negative or exceeds the retention).
func (r *Ring) Last(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastLocked(n)
}

// Snapshot returns the all-time event total together with up to n of the
// most recent events, read under one lock acquisition so the pair is
// mutually consistent even while writers are recording.
func (r *Ring) Snapshot(n int) (total uint64, events []Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.lastLocked(n)
}

func (r *Ring) lastLocked(n int) []Event {
	stored := len(r.buf)
	if n < 0 || n > stored {
		n = stored
	}
	out := make([]Event, 0, n)
	// The oldest retained event sits at total%cap once the buffer wrapped.
	start := 0
	if stored == cap(r.buf) {
		start = int(r.total % uint64(cap(r.buf)))
	}
	for i := stored - n; i < stored; i++ {
		out = append(out, r.buf[(start+i)%stored])
	}
	return out
}
