package obs

import (
	"testing"
	"time"
)

// collector is a minimal Recorder that keeps every event.
type collector struct{ events []Event }

func (c *collector) Record(e Event) { c.events = append(c.events, e) }

func TestNewEventSentinels(t *testing.T) {
	e := NewEvent(KindProbe)
	if e.Kind != KindProbe {
		t.Errorf("kind = %q", e.Kind)
	}
	for name, v := range map[string]int{
		"tenant": e.Tenant, "replica": e.Replica, "server": e.Server,
		"slot": e.Slot, "class": e.Class, "counter": e.Counter,
	} {
		if v != Unset {
			t.Errorf("%s = %d, want Unset", name, v)
		}
	}
}

// probes returns n probe events for tenants first, first+1, ….
func probes(first, n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = NewEvent(KindProbe)
		out[i].Tenant = first + i
	}
	return out
}

func TestRingWraparound(t *testing.T) {
	r := NewRing[Event](4)
	// Batches of 3, 1 and 6 events: the last alone overruns the ring.
	at := []time.Time{time.Unix(10, 0), time.Unix(20, 0), time.Unix(30, 0)}
	RecordBatch(r, probes(0, 3), at[0])
	RecordBatch(r, probes(3, 1), at[1])
	RecordBatch(r, probes(4, 6), at[2])
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	got := r.Last(-1)
	if len(got) != 4 {
		t.Fatalf("len(Last(-1)) = %d, want 4", len(got))
	}
	// Oldest first: tenants 6, 7, 8, 9, numbered on from the total.
	for i, e := range got {
		if e.Tenant != 6+i || e.Seq != uint64(7+i) || !e.Time.Equal(at[2]) {
			t.Errorf("Last(-1)[%d] = tenant %d seq %d time %v, want tenant %d seq %d time %v",
				i, e.Tenant, e.Seq, e.Time, 6+i, 7+i, at[2])
		}
	}
	last := r.Last(2)
	if len(last) != 2 || last[0].Tenant != 8 || last[1].Tenant != 9 {
		t.Errorf("Last(2) = %+v", last)
	}
	if got := r.Last(100); len(got) != 4 {
		t.Errorf("Last(100) len = %d, want 4", len(got))
	}
	if got := r.Last(0); len(got) != 0 {
		t.Errorf("Last(0) len = %d, want 0", len(got))
	}
}

// TestRingSnapshotConsistent races a writer against Snapshot readers: the
// returned total must always match the newest returned event, which two
// separate Total/Last lock acquisitions cannot guarantee.
func TestRingSnapshotConsistent(t *testing.T) {
	r := NewRing[Event](16)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := probes(0, 3)
		for {
			select {
			case <-stop:
				return
			default:
			}
			RecordBatch(r, batch, time.Unix(1, 0))
		}
	}()
	for i := 0; i < 5000; i++ {
		total, events := r.Snapshot(4)
		if total == 0 {
			if len(events) != 0 {
				t.Fatalf("total 0 with %d events", len(events))
			}
			continue
		}
		if len(events) == 0 {
			t.Fatalf("total %d with no events", total)
		}
		if newest := events[len(events)-1].Seq; newest != total {
			t.Fatalf("snapshot skewed: total %d, newest seq %d", total, newest)
		}
	}
	close(stop)
	<-done
}

func TestRingBeforeWrap(t *testing.T) {
	r := NewRing[Event](8)
	batch := probes(0, 3)
	at := time.Unix(50, 0)
	RecordBatch(r, batch, at)
	got := r.Last(-1)
	if len(got) != 3 || got[0].Tenant != 0 || got[2].Tenant != 2 {
		t.Fatalf("Last(-1) = %+v", got)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || !e.Time.Equal(at) {
			t.Errorf("Last(-1)[%d]: seq %d time %v, want seq %d time %v", i, e.Seq, e.Time, i+1, at)
		}
	}
	// The ring numbers and stamps its own copies, not the caller's batch.
	for i, e := range batch {
		if e.Seq != 0 || !e.Time.IsZero() {
			t.Errorf("batch[%d] changed: seq %d time %v", i, e.Seq, e.Time)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }
