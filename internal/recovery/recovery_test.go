package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// driveEngine runs a deterministic mixed workload — client-derived loads,
// explicit loads, a duplicate admission, an invalid load, departures —
// against a fresh engine, recording into rec when non-nil.
func driveEngine(t *testing.T, cfg core.Config, rec obs.Recorder) *core.CubeFit {
	t.Helper()
	cf, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		cf.SetRecorder(rec)
	}
	model := workload.DefaultLoadModel()
	id := 0
	for i := 1; i <= 30; i++ {
		clients := 1 + (i*7)%15
		tn := packing.Tenant{ID: packing.TenantID(id), Load: model.Load(clients), Clients: clients}
		if err := cf.Place(tn); err != nil {
			t.Fatalf("place %d: %v", id, err)
		}
		id++
	}
	for i := 0; i < 10; i++ {
		tn := packing.Tenant{ID: packing.TenantID(id), Load: 0.05 + float64(i)*0.07}
		if err := cf.Place(tn); err != nil {
			t.Fatalf("place %d: %v", id, err)
		}
		id++
	}
	// A duplicate admission and an invalid load: both rejected, both logged.
	if err := cf.Place(packing.Tenant{ID: 0, Load: 0.3}); err == nil {
		t.Fatal("duplicate admission succeeded")
	}
	if err := cf.Place(packing.Tenant{ID: packing.TenantID(id), Load: 1.5}); err == nil {
		t.Fatal("overload admission succeeded")
	}
	id++
	for _, victim := range []int{3, 17, 31} {
		if err := cf.Remove(packing.TenantID(victim)); err != nil {
			t.Fatalf("remove %d: %v", victim, err)
		}
	}
	// Refill after departures so recovery exercises slot reuse.
	for i := 0; i < 5; i++ {
		tn := packing.Tenant{ID: packing.TenantID(id), Load: 0.11, Clients: 4}
		if err := cf.Place(tn); err != nil {
			t.Fatalf("place %d: %v", id, err)
		}
		id++
	}
	return cf
}

func TestRebuildReproducesExactState(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	live := driveEngine(t, cfg, wal)
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}

	events, torn, err := obs.ReadWAL(bytes.NewReader(buf.Bytes()))
	if err != nil || torn {
		t.Fatalf("ReadWAL: torn=%v err=%v", torn, err)
	}
	rebuilt, st, err := Rebuild(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 45 || st.Rejected != 2 || st.Departed != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := trace.Capture(rebuilt.Placement()), trace.Capture(live.Placement()); !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt snapshot differs from live snapshot")
	}
	if got, want := rebuilt.Stats(), live.Stats(); got != want {
		t.Fatalf("rebuilt Stats %+v, live %+v", got, want)
	}
	if err := Verify(rebuilt, events); err != nil {
		t.Fatal(err)
	}

	// The rebuilt engine must keep behaving identically: admitting the
	// same next tenant lands it on the same servers.
	next := packing.Tenant{ID: 999, Load: 0.21, Clients: 6}
	if err := live.Place(next); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Place(next); err != nil {
		t.Fatal(err)
	}
	if got, want := rebuilt.Placement().TenantHosts(999), live.Placement().TenantHosts(999); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery placement diverged: %v vs %v", got, want)
	}
}

// TestRebuildDropsUncommittedTail: an admission whose attempt never
// closed, as a decision stream cut mid-admission ends, is not an
// operation: Rebuild leaves it out.
func TestRebuildDropsUncommittedTail(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	live := driveEngine(t, cfg, wal)
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	events, _, err := obs.ReadWAL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	open := obs.NewEvent(obs.KindAttempt)
	open.Tenant = 777
	open.Size = 0.4
	place := obs.NewEvent(obs.KindStage1Place)
	place.Tenant = 777
	place.Replica = 0
	place.Server = 0
	place.Size = 0.2
	tail := append(append([]obs.Event{}, events...), open, place)

	rebuilt, st, err := Rebuild(tail, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 45 || st.Rejected != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if _, exists := rebuilt.Placement().Tenant(777); exists {
		t.Fatal("uncommitted admission resurrected by recovery")
	}
	if got, want := trace.Capture(rebuilt.Placement()), trace.Capture(live.Placement()); !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt snapshot differs after dropping uncommitted tail")
	}
	if err := Verify(rebuilt, tail); err != nil {
		t.Fatal(err)
	}
}

// eventLog is a recorder that keeps every decision event.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Record(e obs.Event) { l.events = append(l.events, e) }

// TestRebuildFromDecisionStream: the fold ignores every kind outside its
// grammar, so Rebuild replays the engine's whole decision stream, probes,
// cube slots and bin lifecycle included, to the live state.
func TestRebuildFromDecisionStream(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	var log eventLog
	live := driveEngine(t, cfg, &log)
	rebuilt, st, err := Rebuild(log.events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 45 || st.Rejected != 2 || st.Departed != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := trace.Capture(rebuilt.Placement()), trace.Capture(live.Placement()); !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt snapshot differs from live snapshot")
	}
}

func TestFromFileTornTail(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	driveEngine(t, cfg, wal)
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	// Tear the final record in half, as an interrupted write would.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	cf, st, err := FromFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("torn tail not reported")
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFromFileCommittedBytes: recovery reports the byte offset of the
// last whole record, or of the header when no record follows it, and
// truncating the file there removes a torn record so the log replays
// cleanly, with new records appended, on the following boot.
func TestFromFileCommittedBytes(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	driveEngine(t, cfg, wal)
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	committedSize := int64(buf.Len())
	// A crash mid-flush: the next record reached the file only in part.
	buf.WriteString(`{"op":"admit","tenant":777,"load":0.4,"clients":3,"hos`)

	path := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cf, st, err := FromFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn || st.CommittedBytes != committedSize {
		t.Fatalf("Torn = %v, CommittedBytes = %d, want true, %d", st.Torn, st.CommittedBytes, committedSize)
	}
	if _, exists := cf.Placement().Tenant(777); exists {
		t.Fatal("torn admission resurrected by recovery")
	}

	// The boot sequence truncates there and appends; the next boot reads
	// the whole log back, the new record included.
	if trimmed, err := obs.TruncateWAL(path, st.CommittedBytes); err != nil || trimmed == 0 {
		t.Fatalf("TruncateWAL: trimmed %d, err %v", trimmed, err)
	}
	reopened, err := obs.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cf.SetRecorder(reopened)
	if err := cf.Place(packing.Tenant{ID: 777, Load: 0.4, Clients: 3}); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	cf2, st2, err := FromFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Torn || st2.CommittedBytes != info.Size() || st2.Admitted != st.Admitted+1 {
		t.Fatalf("after truncation and append: %+v, file %d bytes", st2, info.Size())
	}
	if got, want := trace.Capture(cf2.Placement()), trace.Capture(cf.Placement()); !reflect.DeepEqual(got, want) {
		t.Fatal("truncated and appended log recovers a different state")
	}

	// A log holding only its header commits the header.
	headerOnly := filepath.Join(t.TempDir(), "header.jsonl")
	if err := os.WriteFile(headerOnly, []byte(obs.WALHeader), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st, err := FromFile(headerOnly, cfg); err != nil || st.Torn || st.CommittedBytes != int64(len(obs.WALHeader)) {
		t.Fatalf("header-only log: %+v, %v", st, err)
	}
}

func TestFromFileMissingLogIsFresh(t *testing.T) {
	cfg := core.Config{Gamma: 3, K: 10}
	cf, st, err := FromFile(filepath.Join(t.TempDir(), "absent.jsonl"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st != (Stats{}) {
		t.Fatalf("stats = %+v, want zero", st)
	}
	if cf.Placement().NumTenants() != 0 {
		t.Fatal("fresh engine is not empty")
	}
}

func TestRebuildRejectsGammaMismatch(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	driveEngine(t, cfg, wal)
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	events, _, err := obs.ReadWAL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Rebuild(events, core.Config{Gamma: 3, K: 10}); err == nil ||
		!strings.Contains(err.Error(), "γ=2") {
		t.Fatalf("gamma mismatch not detected: %v", err)
	}
}

// TestRebuildRejectsInterleavedLog: an attempt inside an open admission
// breaks the grammar, and the error names the event that broke it.
func TestRebuildRejectsInterleavedLog(t *testing.T) {
	a1 := obs.NewEvent(obs.KindAttempt)
	a1.Tenant = 1
	a1.Size = 0.2
	a2 := obs.NewEvent(obs.KindAttempt)
	a2.Tenant = 2
	a2.Size = 0.2
	closeBoth := obs.NewEvent(obs.KindAdmit)
	closeBoth.Tenant = 1
	if _, _, err := Rebuild([]obs.Event{a1, a2, closeBoth}, core.Config{Gamma: 2, K: 10}); err == nil ||
		!strings.Contains(err.Error(), "event 2:") {
		t.Fatalf("interleaved attempts: %v, want an error at event 2", err)
	}
}
