package obs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// recordAdmit feeds rec the events one CubeFit admission sends down the
// recorder chain: the attempt, a first-stage probe, one place event per
// host (by replica index), bin lifecycle noise the log ignores, and the
// admit.
func recordAdmit(rec Recorder, tenant int, load float64, clients int, hosts ...int) {
	at := NewEvent(KindAttempt)
	at.Tenant, at.Size, at.Clients = tenant, load, clients
	rec.Record(at)
	probe := NewEvent(KindStage1Probe)
	probe.Tenant, probe.Replica, probe.Probes = tenant, 0, 3
	rec.Record(probe)
	for i, h := range hosts {
		pl := NewEvent(KindCubePlace)
		pl.Tenant, pl.Replica, pl.Server, pl.Size = tenant, i, h, load/float64(len(hosts))
		rec.Record(pl)
		open := NewEvent(KindBinOpen)
		open.Server = h
		rec.Record(open)
	}
	rec.Record(NewEvent(KindCubeAdvance))
	ad := NewEvent(KindAdmit)
	ad.Tenant, ad.Path = tenant, "regular"
	rec.Record(ad)
}

// recordDepart feeds rec one departure.
func recordDepart(rec Recorder, tenant int) {
	e := NewEvent(KindDepart)
	e.Tenant = tenant
	rec.Record(e)
}

// admitTenants records n admissions, tenant i on servers 2i and 2i+1.
func admitTenants(rec Recorder, from, n int) {
	for i := from; i < from+n; i++ {
		recordAdmit(rec, i, 0.25, 4, 2*i, 2*i+1)
	}
}

// readOps reads a log back and returns its closing events (admit, reject
// and depart), one per record.
func readOps(t *testing.T, data []byte) (ops []Event, torn bool) {
	t.Helper()
	events, torn, err := ReadWAL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadWAL: %v", err)
	}
	for _, e := range events {
		switch e.Kind {
		case KindAdmit, KindReject, KindDepart:
			ops = append(ops, e)
		}
	}
	return ops, torn
}

// TestWALRecordFormat: the log is the header and one record per
// operation, assembled from the attempt and place events; a rollback
// clears the hosts placed before it, and every other kind is dropped.
func TestWALRecordFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	recordAdmit(w, 7, 0.3, 8, 12, 40)
	// A first-stage fallback: replica 0 lands on server 3, the rollback
	// unwinds it, and the cube places both replicas elsewhere.
	at := NewEvent(KindAttempt)
	at.Tenant, at.Size, at.Clients = 9, 0.125, 2
	w.Record(at)
	first := NewEvent(KindStage1Place)
	first.Tenant, first.Replica, first.Server = 9, 0, 3
	w.Record(first)
	rb := NewEvent(KindRollback)
	rb.Tenant, rb.Reason = 9, "first-stage fallback"
	w.Record(rb)
	for i, h := range []int{5, 6} {
		pl := NewEvent(KindCubePlace)
		pl.Tenant, pl.Replica, pl.Server = 9, i, h
		w.Record(pl)
	}
	ad := NewEvent(KindAdmit)
	ad.Tenant = 9
	w.Record(ad)
	// A rejected over-unit load, then a departure.
	at = NewEvent(KindAttempt)
	at.Tenant, at.Size = 8, 1.5
	w.Record(at)
	rj := NewEvent(KindReject)
	rj.Tenant, rj.Reason = 8, "load out of range"
	w.Record(rj)
	recordDepart(w, 7)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	want := WALHeader +
		`{"op":"admit","tenant":7,"load":0.3,"clients":8,"hosts":[12,40]}` + "\n" +
		`{"op":"admit","tenant":9,"load":0.125,"clients":2,"hosts":[5,6]}` + "\n" +
		`{"op":"reject","tenant":8,"load":1.5,"clients":0}` + "\n" +
		`{"op":"depart","tenant":7}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("log:\n%s\nwant:\n%s", got, want)
	}

	// Each record decodes into the events recovery consumes.
	events, torn, err := ReadWAL(bytes.NewReader(buf.Bytes()))
	if err != nil || torn {
		t.Fatalf("ReadWAL: torn=%v err=%v", torn, err)
	}
	var got []string
	for _, e := range events {
		s := fmt.Sprintf("%s t%d", e.Kind, e.Tenant)
		switch e.Kind {
		case KindAttempt:
			s += fmt.Sprintf(" %g/%d", e.Size, e.Clients)
		case KindPlace:
			s += fmt.Sprintf(" r%d@%d", e.Replica, e.Server)
		}
		got = append(got, s)
	}
	wantEvents := []string{
		"attempt t7 0.3/8", "place t7 r0@12", "place t7 r1@40", "admit t7",
		"attempt t9 0.125/2", "place t9 r0@5", "place t9 r1@6", "admit t9",
		"attempt t8 1.5/0", "reject t8",
		"depart t7",
	}
	if !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("decoded events:\n%v\nwant:\n%v", got, wantEvents)
	}
}

// TestWALGroupCommit: records are counted as they are staged and become
// durable only with the Sync that flushes them.
func TestWALGroupCommit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	admitTenants(w, 0, 4)
	recordDepart(w, 2)
	if got := w.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := w.Synced(); got != 0 || buf.Len() != 0 {
		t.Fatalf("before Sync: Synced = %d, %d bytes written, want 0/0", got, buf.Len())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Synced(); got != 5 {
		t.Fatalf("Synced = %d, want 5", got)
	}
	ops, torn := readOps(t, buf.Bytes())
	if torn || len(ops) != 5 {
		t.Fatalf("read %d ops, torn=%v, want 5", len(ops), torn)
	}
	for i, e := range ops[:4] {
		if e.Tenant != i || e.Kind != KindAdmit {
			t.Fatalf("op %d = %s of tenant %d", i, e.Kind, e.Tenant)
		}
	}
	if ops[4].Kind != KindDepart || ops[4].Tenant != 2 {
		t.Fatalf("op 4 = %s of tenant %d, want the depart of 2", ops[4].Kind, ops[4].Tenant)
	}
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errors.New("disk full")
	}
	f.written += len(p)
	return len(p), nil
}

// TestWALStickyError: a failed flush fails the commit, and the log stays
// failed: later operations are dropped and later syncs keep failing.
func TestWALStickyError(t *testing.T) {
	w := NewWAL(&failAfter{n: 64})
	admitTenants(w, 0, 3)
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a full disk succeeded")
	}
	if w.Err() == nil || !w.Failed() {
		t.Fatal("no sticky error after a failed sync")
	}
	before := w.Count()
	admitTenants(w, 3, 1)
	recordDepart(w, 0)
	if w.Count() != before {
		t.Fatal("Record accepted an operation after a sticky error")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync cleared a sticky error")
	}
}

// syncCounter counts Sync calls to prove group commit batches them.
type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (s *syncCounter) Sync() error {
	s.syncs++
	return nil
}

func TestWALSyncsUnderlyingWriter(t *testing.T) {
	var sc syncCounter
	w := NewWAL(&sc)
	admitTenants(w, 0, 100)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if sc.syncs != 1 {
		t.Fatalf("underlying Sync called %d times for one group commit", sc.syncs)
	}
	if ops, _ := readOps(t, sc.Bytes()); len(ops) != 100 {
		t.Fatalf("read back %d ops, want 100", len(ops))
	}
}

// TestWALConcurrentRecord: concurrent single-event operations and group
// commits from many goroutines each land as one whole record.
func TestWALConcurrentRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				recordDepart(w, g*1000+i)
				if i%50 == 0 {
					if err := w.Sync(); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	ops, torn := readOps(t, buf.Bytes())
	if torn || len(ops) != 8*200 {
		t.Fatalf("read %d ops, torn=%v, want %d", len(ops), torn, 8*200)
	}
	seen := make(map[int]bool, len(ops))
	for _, e := range ops {
		if seen[e.Tenant] {
			t.Fatalf("tenant %d logged twice", e.Tenant)
		}
		seen[e.Tenant] = true
	}
}

// writeLog returns a synced log of n admissions.
func writeLog(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWAL(&buf)
	admitTenants(w, 0, n)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadWALTornTail(t *testing.T) {
	data := writeLog(t, 3)
	// A crash mid-write: the log ends inside the last record.
	ops, torn := readOps(t, data[:len(data)-10])
	if !torn {
		t.Fatal("truncated tail not reported as torn")
	}
	if len(ops) != 2 {
		t.Fatalf("recovered %d ops from torn log, want 2", len(ops))
	}
	// A tail cut inside the header is torn too, and holds nothing.
	for _, cut := range []int{1, len(WALHeader) - 1} {
		events, torn, err := ReadWAL(bytes.NewReader(data[:cut]))
		if err != nil || !torn || len(events) != 0 {
			t.Fatalf("log cut at %d inside the header: %d events, torn=%v, err=%v", cut, len(events), torn, err)
		}
	}
}

func TestReadWALCorruptionMidFile(t *testing.T) {
	log := WALHeader +
		`{"op":"depart","tenant":1}` + "\n" +
		"not json at all\n" +
		`{"op":"depart","tenant":2}` + "\n"
	if _, _, err := ReadWAL(strings.NewReader(log)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	// A record that is valid JSON but not an operation is corruption too.
	log = WALHeader + `{"op":"admit","tenant":1,"load":0.2,"clients":1,"hosts":[]}` + "\n" +
		`{"op":"depart","tenant":2}` + "\n"
	if _, _, err := ReadWAL(strings.NewReader(log)); err == nil {
		t.Fatal("an admission without hosts accepted")
	}
}

// TestReadWALRefusesOtherFormats: a log without the header — any log of
// the decision-event format — is refused with an error naming the
// format, and so is another version of it.
func TestReadWALRefusesOtherFormats(t *testing.T) {
	for name, log := range map[string]string{
		"decision events":    `{"seq":1,"time":"2026-01-01T00:00:00Z","kind":"attempt","tenant":1}` + "\n",
		"unterminated event": `{"seq":1,"time":"2026-01-01T00:00:00Z","kind":"attempt"`,
		"other version":      `{"wal":"cubefit-ops","version":2}` + "\n",
		"record first":       `{"op":"depart","tenant":2}` + "\n",
	} {
		_, _, err := ReadWAL(strings.NewReader(log))
		if err == nil || !strings.Contains(err.Error(), "cubefit-ops version 1") {
			t.Errorf("%s: err = %v, want one naming the cubefit-ops version 1 format", name, err)
		}
	}
}

func TestWALFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	admitTenants(w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is sticky too: the file must not accept unlogged admissions.
	recordDepart(w, 3)
	if err := w.Sync(); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("Sync after Close = %v, want ErrWALClosed", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ops, torn := readOps(t, data); torn || len(ops) != 10 {
		t.Fatalf("read %d ops, torn=%v, want 10", len(ops), torn)
	}
	// Reopening appends rather than truncating, and writes no second
	// header into the non-empty log.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recordDepart(w2, 3)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), WALHeader); n != 1 {
		t.Fatalf("log holds %d headers, want 1", n)
	}
	if ops, _ := readOps(t, data); len(ops) != 11 || ops[10].Kind != KindDepart {
		t.Fatalf("after append: %d ops", len(ops))
	}
	// A log opened and closed with no operation holds just the header.
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	w3, err := OpenWAL(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(empty); err != nil || string(data) != WALHeader {
		t.Fatalf("empty log = %q, %v; want the header alone", data, err)
	}
}

// TestReadWALOffsets: every event of a record carries the record's end,
// the exact size the file would have if truncated just past it, so
// slicing the raw log there yields a clean prefix of whole records.
func TestReadWALOffsets(t *testing.T) {
	data := writeLog(t, 3)
	events, ends, torn, err := ReadWALOffsets(bytes.NewReader(data))
	if err != nil || torn {
		t.Fatalf("ReadWALOffsets: torn=%v err=%v", torn, err)
	}
	// Three admissions at γ=2: attempt, two places and the admit each.
	if len(events) != 12 || len(ends) != 12 {
		t.Fatalf("got %d events, %d offsets, want 12/12", len(events), len(ends))
	}
	if ends[11] != int64(len(data)) {
		t.Fatalf("final offset %d, file size %d", ends[11], len(data))
	}
	for i, end := range ends {
		if end != ends[i/4*4+3] {
			t.Fatalf("event %d ends at %d, its record at %d", i, end, ends[i/4*4+3])
		}
	}
	for r := 0; r < 3; r++ {
		end := ends[4*r+3]
		got, _, torn, err := ReadWALOffsets(bytes.NewReader(data[:end]))
		if err != nil || torn || !reflect.DeepEqual(got, events[:4*r+4]) {
			t.Fatalf("prefix to offset %d: %d events, torn=%v, err=%v (want %d)", end, len(got), torn, err, 4*r+4)
		}
	}
	// A header-only log holds no event and is not torn.
	if got, ends, torn, err := ReadWALOffsets(strings.NewReader(WALHeader)); err != nil || torn || len(got) != 0 || len(ends) != 0 {
		t.Fatalf("header-only log: %d events, %d ends, torn=%v, err=%v", len(got), len(ends), torn, err)
	}
}

// TestReadWALUnterminatedTail: the newline is part of the record, so a
// final line lacking one is torn even when the record itself is complete —
// its group commit never finished, so recovery must not trust it.
func TestReadWALUnterminatedTail(t *testing.T) {
	data := bytes.TrimSuffix(writeLog(t, 3), []byte("\n"))
	ops, torn := readOps(t, data)
	if !torn || len(ops) != 2 {
		t.Fatalf("unterminated tail: %d ops, torn=%v, want 2 ops torn", len(ops), torn)
	}
	// The same holds for a header missing its newline.
	events, torn, err := ReadWAL(strings.NewReader(strings.TrimSuffix(WALHeader, "\n")))
	if err != nil || !torn || len(events) != 0 {
		t.Fatalf("unterminated header: %d events, torn=%v, err=%v", len(events), torn, err)
	}
}

// TestTruncateWAL: the log is cut at a record boundary, so a torn tail
// goes and whole records stay.
func TestTruncateWAL(t *testing.T) {
	whole := writeLog(t, 3)
	_, ends, _, err := ReadWALOffsets(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")

	// Truncating to the full size is a no-op.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := TruncateWAL(path, int64(len(whole))); err != nil || n != 0 {
		t.Fatalf("clean log: trimmed %d, err %v", n, err)
	}

	// Cutting at the second record's end drops the third record.
	second := ends[7]
	if n, err := TruncateWAL(path, second); err != nil || n != int64(len(whole))-second {
		t.Fatalf("trimmed %d, err %v, want %d", n, err, int64(len(whole))-second)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ops, torn := readOps(t, data); torn || len(ops) != 2 {
		t.Fatalf("after truncate: %d ops, torn=%v", len(ops), torn)
	}

	// A file shorter than the claimed committed prefix is an error; a
	// missing file is fine only when nothing was committed.
	if _, err := TruncateWAL(path, int64(len(whole))+100); err == nil {
		t.Fatal("short file accepted")
	}
	absent := filepath.Join(t.TempDir(), "absent")
	if n, err := TruncateWAL(absent, 0); err != nil || n != 0 {
		t.Fatalf("missing log: trimmed %d, err %v", n, err)
	}
	if _, err := TruncateWAL(absent, 10); err == nil {
		t.Fatal("missing log with committed bytes accepted")
	}
}

// failingCloser rejects every write and counts closes, to prove Close
// stays idempotent when a sticky error predates it.
type failingCloser struct {
	closes int
}

func (f *failingCloser) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (f *failingCloser) Close() error              { f.closes++; return nil }

func TestWALCloseIdempotentAfterStickyError(t *testing.T) {
	fc := &failingCloser{}
	w := NewWAL(fc)
	recordDepart(w, 1)
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a failing writer succeeded")
	}
	// First Close reports the sticky outcome and closes the writer once.
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the sticky error")
	}
	if fc.closes != 1 {
		t.Fatalf("underlying writer closed %d times, want 1", fc.closes)
	}
	// Second Close is a no-op: no re-flush, no double-close.
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if fc.closes != 1 {
		t.Fatalf("underlying writer closed %d times after retry, want 1", fc.closes)
	}
}

// FuzzReadWAL: the reader never panics, its offsets are consistent with
// its events, and re-reading the log up to the last offset yields the
// same events with nothing torn. The events of an accepted log fold back
// into one Op per record, each closing at its record's last event, and
// re-encoding those ops reads back as the same events.
func FuzzReadWAL(f *testing.F) {
	var valid bytes.Buffer
	w := NewWAL(&valid)
	recordAdmit(w, 1, 0.3, 8, 0, 1)
	recordAdmit(w, 2, 1e-05, 1, 2, 0)
	at := NewEvent(KindAttempt)
	at.Tenant, at.Size = 3, 1.5
	w.Record(at)
	rj := NewEvent(KindReject)
	rj.Tenant = 3
	w.Record(rj)
	recordDepart(w, 1)
	if err := w.Sync(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-9])
	f.Add([]byte(WALHeader))
	f.Add([]byte(`{"seq":1,"time":"2026-01-01T00:00:00Z","kind":"attempt","tenant":1,"size":0.3}` + "\n" +
		`{"seq":2,"time":"2026-01-01T00:00:00Z","kind":"admit","tenant":1}` + "\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		events, ends, torn, err := ReadWALOffsets(bytes.NewReader(input))
		if err != nil {
			return
		}
		if len(ends) != len(events) {
			t.Fatalf("%d ends for %d events", len(ends), len(events))
		}
		for i, end := range ends {
			if end > int64(len(input)) || (i > 0 && end < ends[i-1]) {
				t.Fatalf("ends %v do not rise within %d bytes", ends, len(input))
			}
		}
		if len(events) == 0 {
			return
		}
		prefix := input[:ends[len(ends)-1]]
		again, _, againTorn, err := ReadWALOffsets(bytes.NewReader(prefix))
		if err != nil || againTorn || !reflect.DeepEqual(again, events) {
			t.Fatalf("re-reading the %d-byte prefix (torn=%v): %d events, torn=%v, err=%v; want %d events",
				len(prefix), torn, len(again), againTorn, err, len(events))
		}
		var fold OpFold
		reencoded := []byte(WALHeader)
		for i := range events {
			op, err := fold.Next(&events[i])
			if err != nil {
				t.Fatalf("event %d does not fold: %v", i, err)
			}
			if last := i == len(events)-1 || ends[i+1] != ends[i]; last != (op != nil) {
				t.Fatalf("event %d closes an op: %v, ends its record: %v", i, op != nil, last)
			}
			if op != nil {
				reencoded = appendOp(reencoded, op)
			}
		}
		if again, againTorn, err = ReadWAL(bytes.NewReader(reencoded)); err != nil || againTorn || !reflect.DeepEqual(again, events) {
			t.Fatalf("re-encoded ops read back as %d events, torn=%v, err=%v; want %d events", len(again), againTorn, err, len(events))
		}
	})
}

// BenchmarkWALRecord is the log-encode layer: one admission's recorder
// chain events through WAL.Record into the staging buffer, with a group
// commit every 64 admissions as the placer's batches do.
func BenchmarkWALRecord(b *testing.B) {
	w := NewWAL(discard{})
	events := admissionEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			events[j].Tenant = i
			w.Record(events[j])
		}
		if i%64 == 63 {
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// discard is a writer without Stat, Len or Sync: the benchmark measures
// encoding and staging, not the device.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// admissionEvents is one first-stage admission as CubeFit reports it:
// attempt, a probe and a place per replica, bin lifecycle, admit.
func admissionEvents() []Event {
	var c collector
	at := NewEvent(KindAttempt)
	at.Size, at.Clients = 0.0433, 7
	c.Record(at)
	for r, server := range []int{41207, 3318} {
		probe := NewEvent(KindStage1Probe)
		probe.Replica, probe.Server, probe.Probes = r, server, 4
		c.Record(probe)
		pl := NewEvent(KindStage1Place)
		pl.Replica, pl.Server, pl.Size, pl.Level = r, server, 0.02165, 0.81
		c.Record(pl)
	}
	mature := NewEvent(KindBinMature)
	mature.Server, mature.Class, mature.Level = 41207, 3, 0.81
	c.Record(mature)
	retire := NewEvent(KindBinRetire)
	retire.Server = 3318
	c.Record(retire)
	ad := NewEvent(KindAdmit)
	ad.Path = "first_stage"
	c.Record(ad)
	return c.events
}
