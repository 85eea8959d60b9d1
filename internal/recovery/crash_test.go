package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// crashLog is a log written through the engine together with the
// placement after each of its operations: snaps[k] is the state the
// first k records rebuild.
type crashLog struct {
	data  []byte
	snaps []trace.Snapshot
	// fallbacks counts first-stage fallbacks that rolled back a placed
	// replica.
	fallbacks int
}

// eventCounter forwards every event to the log and counts the
// first-stage fallback rollbacks on the way.
type eventCounter struct {
	log       obs.Recorder
	fallbacks int
}

func (c *eventCounter) Record(e obs.Event) {
	if e.Kind == obs.KindRollback && strings.HasPrefix(e.Reason, "first-stage fallback") {
		c.fallbacks++
	}
	c.log.Record(e)
}

// writeCrashLog drives ops operations through a fresh engine into a log:
// uniform(1..15) client admissions through the default load model, a
// departure of a random live tenant every seventh op and an over-unit
// load, which the engine rejects, every 40th.
func writeCrashLog(t *testing.T, cfg core.Config, ops int, seed uint64) crashLog {
	t.Helper()
	cf, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	counter := eventCounter{log: wal}
	cf.SetRecorder(&counter)
	model := workload.DefaultLoadModel()
	r := rng.New(seed)
	log := crashLog{snaps: []trace.Snapshot{trace.Capture(cf.Placement())}}
	var live []packing.TenantID
	for i := 1; i <= ops; i++ {
		id := packing.TenantID(i)
		switch {
		case i%7 == 0 && len(live) > 0:
			j := r.Intn(len(live))
			if err := cf.Remove(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		case i%40 == 0:
			if err := cf.Place(packing.Tenant{ID: id, Load: 1.25}); err == nil {
				t.Fatal("over-unit load admitted")
			}
		default:
			clients := r.IntRange(1, 15)
			if err := cf.Place(packing.Tenant{ID: id, Load: model.Load(clients), Clients: clients}); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		log.snaps = append(log.snaps, trace.Capture(cf.Placement()))
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	log.data, log.fallbacks = buf.Bytes(), counter.fallbacks
	return log
}

// TestFromFileEveryCrashOffset cuts the log at every byte offset, as a
// crash mid-write can: recovery must succeed, rebuild exactly the records
// that end at or before the cut, report a torn tail exactly when the cut
// is not a record boundary, and commit the last boundary. The boot
// sequence then truncates there, appends one more admission, and the log
// must read back whole. Every cut that commits the same prefix truncates
// to the same file, so that step runs once per prefix, from the cut with
// the longest torn tail.
func TestFromFileEveryCrashOffset(t *testing.T) {
	for _, gamma := range []int{2, 3} {
		t.Run("gamma"+strconv.Itoa(gamma), func(t *testing.T) {
			t.Parallel()
			cfg := core.Config{Gamma: gamma, K: 10}
			log := writeCrashLog(t, cfg, crashOps, 11)
			if log.fallbacks == 0 {
				t.Fatal("the workload made no first-stage fallback")
			}
			_, ends, torn, err := obs.ReadWALOffsets(bytes.NewReader(log.data))
			if err != nil || torn {
				t.Fatalf("reading the whole log: torn=%v, %v", torn, err)
			}
			// bounds[k+1] is where the log of k records ends; bounds[0] is
			// the empty log.
			bounds := []int64{0, int64(len(obs.WALHeader))}
			for _, end := range ends {
				if end != bounds[len(bounds)-1] {
					bounds = append(bounds, end)
				}
			}
			if len(bounds)-2 != len(log.snaps)-1 {
				t.Fatalf("%d records for %d operations", len(bounds)-2, len(log.snaps)-1)
			}
			// committedAt returns the records a cut keeps and the offset
			// recovery must commit.
			committedAt := func(cut int64) (records int, committed int64) {
				if cut < bounds[1] {
					return 0, 0 // inside the header
				}
				for records+2 < len(bounds) && bounds[records+2] <= cut {
					records++
				}
				return records, bounds[records+1]
			}
			path := filepath.Join(t.TempDir(), "wal.jsonl")
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			prefixes := 0
			for cut := int64(0); cut <= int64(len(log.data)); cut++ {
				if cut > 0 {
					// The file holds the log up to the cut.
					if _, err := f.Write(log.data[cut-1 : cut]); err != nil {
						t.Fatal(err)
					}
				}
				k, committed := committedAt(cut)
				cf, st, err := FromFile(path, cfg)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if st.Torn != (cut != committed) || st.CommittedBytes != committed {
					t.Fatalf("cut %d: Torn=%v CommittedBytes=%d, want %v, %d", cut, st.Torn, st.CommittedBytes, cut != committed, committed)
				}
				if !reflect.DeepEqual(trace.Capture(cf.Placement()), log.snaps[k]) {
					t.Fatalf("cut %d: recovered placement differs from the first %d operations", cut, k)
				}
				if _, next := committedAt(cut + 1); cut < int64(len(log.data)) && next == committed {
					continue
				}
				prefixes++
				if removed, err := obs.TruncateWAL(path, st.CommittedBytes); err != nil || removed != cut-committed {
					t.Fatalf("cut %d: truncation removed %d bytes, %v; want %d", cut, removed, err, cut-committed)
				}
				if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, log.data[:committed]) {
					t.Fatalf("cut %d: truncated log is not the first %d bytes (%v)", cut, committed, err)
				}
				appendAndRecover(t, path, cf, st, cfg)
				if err := os.WriteFile(path, log.data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if prefixes != len(bounds) {
				t.Fatalf("appended to %d committed prefixes, want %d", prefixes, len(bounds))
			}
		})
	}
}

// crashOps sizes the crash-offset log: every byte offset replays the
// records before it, so the test's cost grows with its square.
const crashOps = 100

// appendAndRecover runs the rest of the boot sequence on a truncated log:
// reopen it, admit one more tenant into the recovered engine, close, and
// recover again; the log must read back whole with the new admission.
func appendAndRecover(t *testing.T, path string, cf *core.CubeFit, st Stats, cfg core.Config) {
	t.Helper()
	wal, err := obs.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cf.SetRecorder(wal)
	extra := packing.Tenant{ID: 1 << 20, Load: workload.DefaultLoadModel().Load(6), Clients: 6}
	if err := cf.Place(extra); err != nil {
		t.Fatalf("admitting after recovery: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	again, st2, err := FromFile(path, cfg)
	if err != nil {
		t.Fatalf("recovering the appended log: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Torn || st2.CommittedBytes != info.Size() || st2.Admitted != st.Admitted+1 {
		t.Fatalf("appended log read back as %+v from %d bytes", st2, info.Size())
	}
	if !reflect.DeepEqual(trace.Capture(again.Placement()), trace.Capture(cf.Placement())) {
		t.Fatal("appended log recovers a different placement")
	}
}

// TestRebuildRejectsHostMismatch: a log whose record names other hosts
// than the replayed engine chooses does not describe this engine's
// history, so recovery refuses it at that record.
func TestRebuildRejectsHostMismatch(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	log := writeCrashLog(t, cfg, 60, 11)
	lines := strings.SplitAfter(string(log.data), "\n")
	edited := -1
	for i := len(lines) / 2; i < len(lines); i++ {
		at := strings.LastIndex(lines[i], ",")
		if strings.HasPrefix(lines[i], `{"op":"admit"`) && at > 0 {
			host, err := strconv.Atoi(strings.TrimSuffix(lines[i][at+1:], "]}\n"))
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = lines[i][:at+1] + strconv.Itoa(host+1) + "]}\n"
			edited = i
			break
		}
	}
	if edited < 0 {
		t.Fatal("no admission to edit")
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := FromFile(path, cfg)
	if want := "op " + strconv.Itoa(edited) + ":"; err == nil || !strings.Contains(err.Error(), want) ||
		!strings.Contains(err.Error(), "logged on servers") {
		t.Fatalf("FromFile = %v, want a host mismatch at %q", err, want)
	}
}
