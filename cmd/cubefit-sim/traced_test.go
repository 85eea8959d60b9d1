package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// TestTracedRunRoundTrip: a traced run's operation log, replayed through
// a fresh engine with a recorder attached, must reconstruct for every
// admitted tenant the exact decision path — the same per-path totals
// core.Stats reports, and for cube placements the class, counter digits,
// and slot — and the same replica servers the final snapshot holds.
func TestTracedRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "run.wal")
	tracePath := filepath.Join(dir, "placement.json")

	const tenants, seed = 600, 21
	var out bytes.Buffer
	if err := run([]string{
		"-wal", walPath, "-trace", tracePath,
		"-tenants", "600", "-seed", "21",
	}, &out); err != nil {
		t.Fatalf("traced run: %v\n%s", err, out.String())
	}

	wf, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	log, torn, err := obs.ReadWAL(wf)
	if err != nil || torn {
		t.Fatalf("ReadWAL: torn=%v err=%v", torn, err)
	}
	replayed, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var events eventSlice
	replayed.SetRecorder(&events)
	if _, err := recovery.Replay(replayed, log, nil); err != nil {
		t.Fatal(err)
	}
	sf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	snap, err := trace.Read(sf)
	if err != nil {
		t.Fatal(err)
	}

	// Re-run the identical configuration and tenant sequence; its Stats
	// are the ground truth the log must reproduce.
	model := workload.DefaultLoadModel()
	cf, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	u, err := workload.NewUniform(1, 15)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewClientSource(model, u, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range workload.Take(src, tenants) {
		if err := cf.Place(tn); err != nil {
			t.Fatalf("reference Place(%d): %v", tn.ID, err)
		}
	}
	st := cf.Stats()

	ds := obs.Decisions(events)
	if len(ds) != tenants {
		t.Fatalf("reconstructed %d decisions, want %d", len(ds), tenants)
	}
	counts := obs.CountPaths(ds)
	if counts[core.AdmitFirstStage.String()] != st.FirstStageTenants ||
		counts[core.AdmitRegular.String()] != st.RegularTenants ||
		counts[core.AdmitTiny.String()] != st.TinyTenants {
		t.Errorf("log path counts %v, engine stats %+v", counts, st)
	}

	// Per-tenant exact path against the reference run and the snapshot.
	snapHosts := make(map[int][]int)
	for _, s := range snap.Servers {
		for _, r := range s.Replicas {
			snapHosts[r.Tenant] = append(snapHosts[r.Tenant], s.ID)
		}
	}
	for _, d := range ds {
		refHosts := cf.Placement().TenantHosts(packing.TenantID(d.Tenant))
		logHosts := make([]int, 0, len(d.Replicas))
		for _, r := range d.Replicas {
			logHosts = append(logHosts, r.Server)
		}
		for name, hosts := range map[string][]int{
			"reference run": refHosts, "snapshot": snapHosts[d.Tenant],
		} {
			a := append([]int(nil), logHosts...)
			b := append([]int(nil), hosts...)
			sort.Ints(a)
			sort.Ints(b)
			if len(a) != len(b) {
				t.Fatalf("tenant %d: log has %d replicas, %s has %d",
					d.Tenant, len(a), name, len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("tenant %d: log servers %v, %s servers %v",
						d.Tenant, a, name, b)
				}
			}
		}
		if d.Path == core.AdmitRegular.String() {
			if d.Class == obs.Unset || d.Counter == obs.Unset || len(d.Digits) == 0 {
				t.Fatalf("tenant %d: regular decision missing cube address: %+v", d.Tenant, d)
			}
			for _, r := range d.Replicas {
				if r.Slot == obs.Unset {
					t.Fatalf("tenant %d: cube replica missing slot", d.Tenant)
				}
			}
		}
	}
}

// eventSlice is a recorder that keeps every decision event.
type eventSlice []obs.Event

func (s *eventSlice) Record(e obs.Event) { *s = append(*s, e) }

func TestTracedRunOutput(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "run.wal")
	var out bytes.Buffer
	if err := run([]string{"-wal", walPath, "-tenants", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Traced run: 50") {
		t.Errorf("summary missing: %s", out.String())
	}
	if !strings.Contains(out.String(), "50 operations -> "+walPath) {
		t.Errorf("log path not reported: %s", out.String())
	}
	// A second run to the same path replaces the log: it holds one
	// history, not two.
	if err := run([]string{"-wal", walPath, "-tenants", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 51 {
		t.Fatalf("log after two runs holds %d lines, want the header and 50 records", lines)
	}
}
