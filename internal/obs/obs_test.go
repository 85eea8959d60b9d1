package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cubefit/internal/clock"
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

// TestInferGamma: only place-shaped events witness γ, and a log that
// places nothing yields 0 rather than a guess.
func TestInferGamma(t *testing.T) {
	event := func(kind Kind, replica int) Event {
		e := NewEvent(kind)
		e.Replica = replica
		return e
	}
	for _, tc := range []struct {
		name   string
		events []Event
		want   int
	}{
		{"empty", nil, 0},
		{"no placements", []Event{event(KindAttempt, Unset), event(KindStage1Probe, 2), event(KindReject, Unset)}, 0},
		{"place", []Event{event(KindPlace, 0), event(KindPlace, 1)}, 2},
		{"stage1 and cube", []Event{event(KindCubePlace, 0), event(KindStage1Place, 2), event(KindProbe, 5)}, 3},
	} {
		if got := InferGamma(tc.events); got != tc.want {
			t.Errorf("%s: InferGamma = %d, want %d", tc.name, got, tc.want)
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

func TestStampAssignsSeqAndTime(t *testing.T) {
	fake := clock.NewFake(time.Unix(100, 0))
	var c collector
	rec := Stamp(fake, &c)
	rec.Record(NewEvent(KindAttempt))
	fake.Advance(3 * time.Second)
	rec.Record(NewEvent(KindAdmit))
	if len(c.events) != 2 {
		t.Fatalf("got %d events", len(c.events))
	}
	if c.events[0].Seq != 1 || c.events[1].Seq != 2 {
		t.Errorf("seqs = %d, %d, want 1, 2", c.events[0].Seq, c.events[1].Seq)
	}
	if !c.events[0].Time.Equal(time.Unix(100, 0)) {
		t.Errorf("first time = %v", c.events[0].Time)
	}
	if got := c.events[1].Time.Sub(c.events[0].Time); got != 3*time.Second {
		t.Errorf("time delta = %v, want 3s", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	fake := clock.NewFake(time.Unix(42, 0))
	rec := Stamp(fake, sink)

	e := NewEvent(KindCubePlace)
	e.Engine = "cubefit"
	e.Tenant = 7
	e.Replica = 1
	e.Server = 3
	e.Slot = 2
	e.Class = 5
	e.Counter = 9
	e.Digits = []int{1, 4}
	e.Size = 0.25
	rec.Record(e)
	rec.Record(NewEvent(KindAdmit))

	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 2 {
		t.Errorf("Count = %d, want 2", sink.Count())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("wrote %d lines, want 2", lines)
	}

	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d events, want 2", len(back))
	}
	got := back[0]
	if got.Kind != KindCubePlace || got.Tenant != 7 || got.Server != 3 ||
		got.Slot != 2 || got.Class != 5 || got.Counter != 9 {
		t.Errorf("round-trip mangled event: %+v", got)
	}
	if len(got.Digits) != 2 || got.Digits[0] != 1 || got.Digits[1] != 4 {
		t.Errorf("digits = %v", got.Digits)
	}
	if got.Seq != 1 || !got.Time.Equal(time.Unix(42, 0)) {
		t.Errorf("stamp lost: seq=%d time=%v", got.Seq, got.Time)
	}
}

func TestJSONLStickyError(t *testing.T) {
	sink := NewJSONL(failWriter{})
	sink.Record(NewEvent(KindAttempt))
	if sink.Err() == nil {
		t.Fatal("expected a write error")
	}
	sink.Record(NewEvent(KindAdmit))
	if sink.Count() != 0 {
		t.Errorf("Count = %d after error, want 0 (failed writes are not counted)", sink.Count())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"admit\"}\nnot json\n")); err == nil {
		t.Error("expected an error on malformed JSONL")
	}
}
