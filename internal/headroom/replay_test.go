package headroom_test

import (
	"bytes"
	"reflect"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/rng"
)

// samePlacement asserts two placements audit identically: same servers,
// levels, reserves, worst sets and aggregates.
func samePlacement(t *testing.T, got, want *packing.Placement) {
	t.Helper()
	if got.NumTenants() != want.NumTenants() {
		t.Fatalf("replayed %d tenants, live has %d", got.NumTenants(), want.NumTenants())
	}
	gr := headroom.Exhaustive(got, 0)
	wr := headroom.Exhaustive(want, 0)
	if !reflect.DeepEqual(gr, wr) {
		t.Fatalf("replayed placement audits differently\n got: %+v\nwant: %+v", gr, wr)
	}
}

// TestReplayRoundTripCubeFit writes a CubeFit operation log — admissions,
// departures, a duplicate rejection and an invalid load — and replays it
// through a fresh engine with the auditor attached as its recorder, as
// `cubefit-inspect headroom` does: the replayed placement audits
// identically to the live one, and the incremental auditor agrees with
// the exhaustive reference.
func TestReplayRoundTripCubeFit(t *testing.T) {
	cfg := core.Config{Gamma: 3, K: 6}
	cf, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	cf.SetRecorder(wal)

	r := rng.New(0xD1CE)
	var live []packing.TenantID
	for id := packing.TenantID(1); id <= 80; id++ {
		load := 0.02 + 0.9*r.Float64()
		if err := cf.Place(packing.Tenant{ID: id, Load: load, Clients: 8}); err == nil {
			live = append(live, id)
		}
		if len(live) > 0 && r.Float64() < 0.25 {
			i := r.Intn(len(live))
			if err := cf.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	_ = cf.Place(packing.Tenant{ID: live[0], Load: 0.2}) // duplicate: rejected
	_ = cf.Place(packing.Tenant{ID: 5000, Load: 1.5})    // invalid: rejected
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	events, _, err := obs.ReadWAL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	replayed, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := replayed.Placement()
	a := headroom.New(p, 0)
	replayed.SetRecorder(a)
	var mins []headroom.Entry
	st, err := recovery.Replay(replayed, events, func(n int, _ obs.Op) {
		if n != len(mins)+1 {
			t.Fatalf("operation %d after %d samples", n, len(mins))
		}
		min, _ := a.Min()
		mins = append(mins, min)
	})
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, p, cf.Placement())
	if rep := a.Report(); !reflect.DeepEqual(rep, headroom.Exhaustive(p, rep.RedLine)) {
		t.Fatal("replay auditor diverged from exhaustive on final state")
	}
	if st.Rejected < 2 || st.Departed == 0 {
		t.Fatalf("log without departures or both rejections: %+v", st)
	}
	if ops := st.Admitted + st.Rejected + st.Departed; len(mins) != ops {
		t.Fatalf("sampled %d points for %d operations", len(mins), ops)
	}
	for i, min := range mins {
		if min.Slack > 1 {
			t.Fatalf("point %d out of range: %+v", i, min)
		}
	}
	last := mins[len(mins)-1]
	min, _ := a.Min()
	if last.Slack != min.Slack || last.Server != min.Server {
		t.Fatalf("final point %+v disagrees with auditor min %+v", last, min)
	}
}
