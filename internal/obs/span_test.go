package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// fullSpan returns a span with every boundary stamped and strictly
// increasing timestamps.
func fullSpan() Span {
	return Span{
		Tenant: 7, Status: 201, Batch: true, Commit: 3, Group: 64,
		EnqueueNs: 100, DequeueNs: 250, PlaceStartNs: 300, PlaceEndNs: 340,
		CommitStartNs: 900, CommitEndNs: 2100, AckNs: 2200,
	}
}

func TestSpanStageTelescoping(t *testing.T) {
	s := fullSpan()
	s.Normalize()
	sum := s.QueueNs() + s.PlaceNs() + s.WalNs() + s.FsyncNs() + s.AckLatencyNs()
	if sum != s.TotalNs() {
		t.Fatalf("stage sum %d != total %d", sum, s.TotalNs())
	}
	if got, want := s.QueueNs(), int64(150); got != want {
		t.Errorf("QueueNs = %d, want %d", got, want)
	}
	if got, want := s.PlaceNs(), int64(90); got != want {
		t.Errorf("PlaceNs = %d, want %d", got, want)
	}
	if got, want := s.EngineNs(), int64(40); got != want {
		t.Errorf("EngineNs = %d, want %d", got, want)
	}
	if got, want := s.WalNs(), int64(560); got != want {
		t.Errorf("WalNs = %d, want %d", got, want)
	}
	if got, want := s.FsyncNs(), int64(1200); got != want {
		t.Errorf("FsyncNs = %d, want %d", got, want)
	}
	if got, want := s.AckLatencyNs(), int64(100); got != want {
		t.Errorf("AckLatencyNs = %d, want %d", got, want)
	}
	if got, want := s.CommitNs(), s.WalNs()+s.FsyncNs(); got != want {
		t.Errorf("CommitNs = %d, want %d", got, want)
	}
}

func TestSpanNormalizeFillsSkippedBoundaries(t *testing.T) {
	// A pre-rejected item never reaches the engine or a commit: only
	// enqueue, dequeue, and ack are stamped.
	s := Span{EnqueueNs: 10, DequeueNs: 30, AckNs: 45}
	s.Normalize()
	if s.PlaceStartNs != 30 || s.PlaceEndNs != 30 || s.CommitStartNs != 30 || s.CommitEndNs != 30 {
		t.Fatalf("normalize did not fill forward: %+v", s)
	}
	if s.PlaceNs() != 0 || s.WalNs() != 0 || s.FsyncNs() != 0 {
		t.Fatalf("skipped stages should be zero: %+v", s)
	}
	sum := s.QueueNs() + s.PlaceNs() + s.WalNs() + s.FsyncNs() + s.AckLatencyNs()
	if sum != s.TotalNs() {
		t.Fatalf("stage sum %d != total %d after normalize", sum, s.TotalNs())
	}
	// Idempotent.
	before := s
	s.Normalize()
	if s != before {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", s, before)
	}
}

func TestSpanPoolRoundTrip(t *testing.T) {
	s := AcquireSpan()
	if *s != (Span{}) {
		t.Fatalf("acquired span not zeroed: %+v", *s)
	}
	s.Tenant = 42
	s.EnqueueNs = 9
	ReleaseSpan(s)
	s2 := AcquireSpan()
	if *s2 != (Span{}) {
		t.Fatalf("reacquired span carries stale state: %+v", *s2)
	}
	ReleaseSpan(s2)
}

func TestSpanLifecycleZeroAllocs(t *testing.T) {
	ring := NewRing[Span](8)
	// Warm the pool and the ring.
	for i := 0; i < 16; i++ {
		sp := AcquireSpan()
		ring.Add(*sp)
		ReleaseSpan(sp)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := AcquireSpan()
		sp.Tenant = 1
		sp.EnqueueNs = 10
		sp.DequeueNs = 20
		sp.PlaceStartNs = 21
		sp.PlaceEndNs = 30
		sp.AckNs = 40
		sp.Normalize()
		ring.Add(*sp)
		ReleaseSpan(sp)
	})
	if allocs != 0 {
		t.Fatalf("span lifecycle allocates %v per op, want 0", allocs)
	}
}

func TestSpanRingWrapAround(t *testing.T) {
	r := NewRing[Span](3)
	for i := 1; i <= 5; i++ {
		r.Add(Span{Tenant: i})
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	got := r.Last(-1)
	want := []Span{{Tenant: 3}, {Tenant: 4}, {Tenant: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Last(-1) = %+v, want %+v", got, want)
	}
	if got := r.Last(2); len(got) != 2 || got[0].Tenant != 4 || got[1].Tenant != 5 {
		t.Fatalf("Last(2) = %+v", got)
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSpanJSONL(&buf)
	in := []Span{fullSpan(), {Tenant: 9, Status: 409, EnqueueNs: 5, DequeueNs: 8, AckNs: 12}}
	for _, s := range in {
		sink.RecordSpan(s)
	}
	if sink.Count() != 2 || sink.Err() != nil {
		t.Fatalf("Count=%d Err=%v", sink.Count(), sink.Err())
	}
	out, err := ReadSpanJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("read %d spans, want 2", len(out))
	}
	// The reader normalizes; the first span was already fully stamped.
	if out[0] != in[0] {
		t.Fatalf("span 0 round trip: %+v vs %+v", out[0], in[0])
	}
	if out[1].PlaceEndNs != 8 || out[1].CommitEndNs != 8 {
		t.Fatalf("span 1 not normalized on read: %+v", out[1])
	}
	sum := out[1].QueueNs() + out[1].PlaceNs() + out[1].WalNs() + out[1].FsyncNs() + out[1].AckLatencyNs()
	if sum != out[1].TotalNs() {
		t.Fatalf("normalized span does not telescope: %+v", out[1])
	}
}

func TestSpanJSONLStickyError(t *testing.T) {
	sink := NewSpanJSONL(failWriter{})
	sink.RecordSpan(Span{Tenant: 1})
	if sink.Err() == nil {
		t.Fatal("expected sticky error")
	}
	sink.RecordSpan(Span{Tenant: 2})
	if sink.Count() != 0 {
		t.Fatalf("Count = %d after failed writes, want 0", sink.Count())
	}
}
