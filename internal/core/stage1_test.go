package core

import (
	"math"
	"testing"

	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/workload"
)

func TestTopSharedAdjusted(t *testing.T) {
	p, err := packing.NewPlacement(3)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1, s2, s3 := p.OpenServer(), p.OpenServer(), p.OpenServer(), p.OpenServer()
	place := func(id packing.TenantID, load float64, hosts ...int) {
		t.Helper()
		if err := p.AddTenant(packing.Tenant{ID: id, Load: load}); err != nil {
			t.Fatal(err)
		}
		for i, r := range p.Replicas(packing.Tenant{ID: id, Load: load}) {
			if err := p.Place(hosts[i], r); err != nil {
				t.Fatal(err)
			}
		}
	}
	place(1, 0.3, s0, s1, s2) // replicas 0.1: shared(s0,s1)=shared(s0,s2)=0.1
	place(2, 0.6, s0, s1, s3) // replicas 0.2: shared(s0,s1)=0.3, shared(s0,s3)=0.2

	srv := p.Server(s0)
	// Without adjustment, top-2 shared = 0.3 (s1) + 0.2 (s3).
	if got := topSharedAdjusted(srv, 2, nil, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("baseline top-2 = %v, want 0.5", got)
	}
	// Bumping s2 by 0.25 lifts it from 0.1 to 0.35: top-2 = 0.35 + 0.3.
	if got := topSharedAdjusted(srv, 2, []int{s2}, 0.25); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("adjusted top-2 = %v, want 0.65", got)
	}
	// Bumping an unrelated server with no current share contributes delta.
	s4 := p.OpenServer()
	if got := topSharedAdjusted(srv, 2, []int{s4}, 0.4); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("new-neighbour top-2 = %v, want 0.7", got)
	}
	// k=0 short-circuits.
	if got := topSharedAdjusted(srv, 0, []int{s4}, 0.4); got != 0 {
		t.Fatalf("k=0 = %v", got)
	}
}

// TestFirstStageRollback forces the first stage to succeed for the first
// replica and fail for the second, and checks that the placement state is
// fully restored before the second stage runs.
func TestFirstStageRollback(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10})
	// Mature a pair of class-1 bins: tenants of load 0.7 (replicas 0.35).
	placeAll(t, cf, []packing.Tenant{{ID: 1, Load: 0.7}})
	if cf.NumActiveMatureBins() != 2 {
		t.Fatalf("active mature bins = %d, want 2", cf.NumActiveMatureBins())
	}
	// Each bin has level 0.35, reserve 0.35, slack 0.30. A tenant of load
	// 0.5 (replicas 0.25) m-fits the first replica into one bin; placing
	// the second replica into the sibling bin would push the pairwise
	// shared load to 0.35+0.25 = 0.6 and the level to 0.6, violating
	// level + shared ≤ 1 (1.2) — so the whole tenant must roll back.
	before := cf.Placement().NumUsedServers()
	placeAll(t, cf, []packing.Tenant{{ID: 2, Load: 0.5}})
	st := cf.Stats()
	if st.FirstStageTenants != 0 {
		t.Fatalf("tenant should have fallen through to the second stage: %+v", st)
	}
	if cf.Placement().NumUsedServers() <= before {
		t.Fatal("second stage did not open new servers")
	}
	// The mature bins must be exactly as before the attempt.
	for _, sid := range []int{0, 1} {
		srv := cf.Placement().Server(sid)
		if srv.NumReplicas() != 1 || math.Abs(srv.Level()-0.35) > 1e-12 {
			t.Fatalf("rollback left residue on server %d: level %v, %d replicas",
				sid, srv.Level(), srv.NumReplicas())
		}
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstStageFallbackRefreshesOnce pins the first stage's deferred
// refresh on a fallback: placing replica 0 would retire its Best-Fit bin
// (PruneSlack 0.05), and replica 1 then finds no bin. The bin is refreshed
// once, after the unplace, so the admission emits no bin_retire or
// bin_reactivate, and the bin stays active under its key.
func TestFirstStageFallbackRefreshesOnce(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10, PruneSlack: 0.05})
	// As in TestFirstStageRollback: two class-1 bins at level 0.35,
	// reserve 0.35 and slack 0.30. Replica 0 of a 0.5 tenant m-fits bin 0
	// and would leave it slack 1 − 0.6 − 0.35 = 0.05; replica 1 cannot go
	// to bin 1 (0.6 level plus 0.6 shared).
	placeAll(t, cf, []packing.Tenant{{ID: 1, Load: 0.7}})
	if cf.NumActiveMatureBins() != 2 {
		t.Fatalf("active mature bins = %d, want 2", cf.NumActiveMatureBins())
	}
	srv := cf.Placement().Server(0)
	if !packing.FitsWithin(1-(srv.Level()+0.25)-srv.TopShared(1), cf.cfg.PruneSlack) {
		t.Fatal("replica 0 would not retire bin 0: the test no longer reaches the case it pins")
	}
	rec := &recorded{}
	cf.SetRecorder(rec)
	placeAll(t, cf, []packing.Tenant{{ID: 2, Load: 0.5}})

	places, rollbacks := rec.byKind(obs.KindStage1Place), rec.byKind(obs.KindRollback)
	if len(places) != 1 || places[0].Server != 0 || len(rollbacks) != 1 {
		t.Fatalf("want replica 0 placed on bin 0 and one fallback; got stage1_place %+v, %d rollbacks", places, len(rollbacks))
	}
	for _, k := range []obs.Kind{obs.KindBinRetire, obs.KindBinReactivate} {
		if n := len(rec.byKind(k)); n != 0 {
			t.Errorf("the fallback emitted %d %s events", n, k)
		}
	}
	if cf.bins[0].activeIdx < 0 {
		t.Fatal("bin 0 left the active list")
	}
	if key, level := cf.index.nodes[0].key, cf.Placement().Server(0).Level(); key != level {
		t.Fatalf("bin 0 filed under %v, server level %v", key, level)
	}
	checkFitIndex(t, cf)
	checkBinCaches(t, cf)
}

// TestFirstStagePartialFit: when only some replicas m-fit, none may stay.
func TestFirstStagePartialFitAllOrNothing(t *testing.T) {
	r := rng.New(61)
	for trial := 0; trial < 40; trial++ {
		cf := mustCubeFit(t, Config{Gamma: 2, K: 8})
		src, err := workload.NewLoadSource(1, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			tn := src.Next()
			if err := cf.Place(tn); err != nil {
				t.Fatal(err)
			}
			hosts := cf.Placement().TenantHosts(tn.ID)
			placed := 0
			for _, h := range hosts {
				if h >= 0 {
					placed++
				}
			}
			if placed != 2 {
				t.Fatalf("trial %d: tenant %d has %d placed replicas", trial, tn.ID, placed)
			}
		}
	}
}

// TestCubeCounterWrapAround drives one class through several full counter
// sweeps and verifies fresh groups are opened and all placements stay
// valid.
func TestCubeCounterWrapAround(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10, DisableFirstStage: true})
	// Class 2 for γ=2 covers replica sizes (1/4, 1/3]: load 0.6 → 0.3.
	// τ^γ = 4 addresses per sweep; run 6 sweeps.
	const perSweep = 4
	for i := 0; i < 6*perSweep; i++ {
		placeAll(t, cf, []packing.Tenant{{ID: packing.TenantID(i), Load: 0.6}})
	}
	p := cf.Placement()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each sweep uses 2 groups × 2 bins, every bin holding 2 replicas:
	// 24 tenants × 2 replicas / 2 per bin = 24 bins.
	if got := p.NumUsedServers(); got != 24 {
		t.Fatalf("used %d servers, want 24", got)
	}
	for _, s := range p.Servers() {
		if s.NumReplicas() != 2 {
			t.Fatalf("server %d has %d replicas, want 2", s.ID(), s.NumReplicas())
		}
	}
}

// TestMatureBinReceivesAtMostTauStageTwoReplicas: the cube discipline
// never packs more than τ same-class replicas into a type-τ bin.
func TestStageTwoSlotDiscipline(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 3, K: 10, DisableFirstStage: true})
	// Class 3 for γ=3: replica sizes (1/6, 1/5]: load 0.55 ⇒ replica ~0.1833.
	for i := 0; i < 200; i++ {
		placeAll(t, cf, []packing.Tenant{{ID: packing.TenantID(i), Load: 0.55}})
	}
	for _, s := range cf.Placement().Servers() {
		if n := s.NumReplicas(); n > 3 {
			t.Fatalf("server %d holds %d class-3 replicas, max 3", s.ID(), n)
		}
	}
}

// TestPruneRetiresBins: with a prune bound, exhausted mature bins leave
// the active list permanently.
func TestPruneRetiresBins(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10, PruneSlack: 0.05})
	src, err := workload.NewLoadSource(1, 17)
	if err != nil {
		t.Fatal(err)
	}
	placeAll(t, cf, workload.Take(src, 1500))
	retired := 0
	for _, b := range cf.bins {
		if b.retired {
			retired++
		}
		if b.retired && b.activeIdx != -1 {
			t.Fatalf("bin %d retired but still active", b.server)
		}
	}
	if retired == 0 {
		t.Fatal("no bins were retired despite a prune bound")
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveReactivatesBin: a departure that restores slack puts a retired
// bin back into first-stage service.
func TestRemoveReactivatesBin(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10, PruneSlack: 0.05})
	src, err := workload.NewLoadSource(1, 19)
	if err != nil {
		t.Fatal(err)
	}
	tenants := workload.Take(src, 800)
	placeAll(t, cf, tenants)
	activeBefore := cf.NumActiveMatureBins()
	for _, tn := range tenants[:400] {
		if err := cf.Remove(tn.ID); err != nil {
			t.Fatal(err)
		}
	}
	if cf.NumActiveMatureBins() <= activeBefore {
		t.Fatalf("departures did not reactivate bins: %d -> %d",
			activeBefore, cf.NumActiveMatureBins())
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}
