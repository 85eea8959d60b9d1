package core

import (
	"fmt"
	"runtime"
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/workload"
)

// benchEngine builds an engine pre-loaded with enough tenants that the
// first stage has a realistic population of active mature bins. oracle,
// when non-nil, switches the fresh engine onto a reference path (the
// test-only scanFirstStage or cleared cachedReserve) before any tenant
// is placed.
func benchEngine(b *testing.B, cfg Config, tenants int, oracle func(*CubeFit)) *CubeFit {
	b.Helper()
	cf, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if oracle != nil {
		oracle(cf)
	}
	r := rng.New(7)
	for i := 0; i < tenants; i++ {
		size := 0.001 + (0.9/float64(cfg.Gamma)-0.001)*r.Float64()
		t := packing.Tenant{ID: packing.TenantID(i + 1), Load: size * float64(cfg.Gamma)}
		if err := cf.Place(t); err != nil {
			b.Fatal(err)
		}
	}
	return cf
}

// BenchmarkBestMFitProbe pins the cost of a single first-stage probe for
// the indexed fast path and the reference linear scan. The probe is
// read-only (no placement follows), so each iteration sees the same bin
// population.
func BenchmarkBestMFitProbe(b *testing.B) {
	for _, impl := range []struct {
		name      string
		reference bool
		tenants   []int
	}{
		// The 100k point pins the service-scale claim: probe cost stays
		// ~flat as the open-tenant population grows. The reference scan is
		// O(active bins) per probe, so it only runs the small points.
		{"indexed", false, []int{200, 1000, 100000}},
		{"reference", true, []int{200, 1000}},
	} {
		for _, tenants := range impl.tenants {
			name := fmt.Sprintf("%s/tenants%d", impl.name, tenants)
			b.Run(name, func(b *testing.B) {
				cf := benchEngine(b, Config{Gamma: 2, K: 10}, tenants, func(cf *CubeFit) {
					cf.scanFirstStage = impl.reference
				})
				probe := packing.Tenant{ID: packing.TenantID(1 << 20), Load: 0.02}
				if err := cf.p.AddTenant(probe); err != nil {
					b.Fatal(err)
				}
				reps := cf.p.Replicas(probe)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bin, _ := cf.bestMFit(probe, reps[0]); bin == nil {
						b.Fatal("probe found no bin")
					}
				}
			})
		}
	}
}

// benchMFitsEngine builds a churned engine and returns it together with
// the candidate bin whose server has the most sharing neighbors — the
// worst case for the reference shared-load scan, the indifferent case for
// the digest — and an m-fit probe against it.
func benchMFitsEngine(b *testing.B, referenceReserve bool) (*CubeFit, *packing.Server, []int, packing.Replica) {
	cf := benchEngine(b, Config{Gamma: 3, K: 10}, 1000, func(cf *CubeFit) {
		cf.cachedReserve = !referenceReserve
	})
	var srv *packing.Server
	for _, bn := range cf.active {
		s := cf.p.Server(bn.server)
		if srv == nil || s.NumShared() > srv.NumShared() {
			srv = s
		}
	}
	if srv == nil {
		b.Fatal("no active bins")
	}
	// Two earlier hosts (γ=3) that do not host the probe tenant.
	earlier := make([]int, 0, 2)
	for _, bn := range cf.active {
		if bn.server != srv.ID() {
			earlier = append(earlier, bn.server)
			if len(earlier) == 2 {
				break
			}
		}
	}
	if len(earlier) < 2 {
		b.Fatal("not enough active bins for earlier hosts")
	}
	probe := packing.Tenant{ID: packing.TenantID(1 << 20), Load: 0.03}
	if err := cf.p.AddTenant(probe); err != nil {
		b.Fatal(err)
	}
	return cf, srv, earlier, cf.p.Replicas(probe)[0]
}

// BenchmarkMFitsCached pins the digest-backed m-fit test: the adjusted
// top-(γ−1) sums come from the per-bin reserve digests, so the cost is
// O(γ) regardless of how many peers the candidate shares tenants with.
func BenchmarkMFitsCached(b *testing.B) {
	cf, srv, earlier, rep := benchMFitsEngine(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.mFits(srv, earlier, rep)
	}
}

// BenchmarkMFitsReference pins the reference m-fit test (cachedReserve
// cleared): every call rescans the shared loads of the candidate and each
// earlier host via topSharedAdjusted.
func BenchmarkMFitsReference(b *testing.B) {
	cf, srv, earlier, rep := benchMFitsEngine(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.mFits(srv, earlier, rep)
	}
}

// BenchmarkTopSharedAdjusted pins the m-fit inner loop: the hypothetical
// top-k shared-load sum of a populated server.
func BenchmarkTopSharedAdjusted(b *testing.B) {
	cf := benchEngine(b, Config{Gamma: 3, K: 10}, 500, nil)
	// Pick the active mature bin with the most sharing neighbors.
	var srv *packing.Server
	for _, bn := range cf.active {
		s := cf.p.Server(bn.server)
		if srv == nil || s.NumShared() > srv.NumShared() {
			srv = s
		}
	}
	if srv == nil {
		b.Fatal("no active bins")
	}
	bump := [1]int{srv.ID() + 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topSharedAdjusted(srv, 2, bump[:], 0.01)
	}
}

// BenchmarkPlaceNoRecorder measures a full admit/depart cycle on the
// default (recorder-detached) hot path; allocs/op here is the number the
// scratch buffers, the tenant table's row reuse and the bins' slot
// records exist to hold down.
func BenchmarkPlaceNoRecorder(b *testing.B) {
	cf := benchEngine(b, Config{Gamma: 2, K: 10}, 500, nil)
	r := rng.New(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size := 0.001 + 0.449*r.Float64()
		id := packing.TenantID(1<<20 + i)
		if err := cf.Place(packing.Tenant{ID: id, Load: 2 * size}); err != nil {
			b.Fatal(err)
		}
		if err := cf.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceFleet measures one admission against a service-scale
// fleet that grows the way the service grows it: uniform(1..15) clients
// through workload.DefaultLoadModel, γ=2, K=10, no recorder, no
// departures. Each iteration places one new tenant; once the timed
// admissions have grown the fleet by a tenth, it is rebuilt off the
// clock, so every timed Place lands on a fleet of N to 1.1·N tenants at
// any b.N. First-stage cost grows with the logarithm of the fleet, so the
// 250k point should stay within 2× of the 10k point. The rebuilds place
// about ten tenants off the clock per timed one, so a one-second
// -benchtime spends minutes on them; `make perf` runs a fixed count.
//
// heap-B/tenant is the engine's memory ledger: the live heap the first
// fleet of each size added, after a forced GC, divided by its tenants.
func BenchmarkPlaceFleet(b *testing.B) {
	for _, tenants := range []int{10000, 100000, 250000} {
		// Shared by the b.N rounds and -count repetitions of one size.
		var (
			cf            *CubeFit
			src           *workload.ClientSource
			grown         int
			heapPerTenant float64
		)
		b.Run(fmt.Sprintf("tenants%d", tenants), func(b *testing.B) {
			b.ReportAllocs()
			if cf == nil {
				before := liveHeap()
				cf, src = fleetEngine(b, tenants)
				heapPerTenant = float64(liveHeap()-before) / float64(tenants)
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if grown == tenants/10 {
					b.StopTimer()
					cf, src = fleetEngine(b, tenants)
					grown = 0
					b.StartTimer()
				}
				if err := cf.Place(src.Next()); err != nil {
					b.Fatal(err)
				}
				grown++
			}
			b.ReportMetric(heapPerTenant, "heap-B/tenant")
		})
	}
}

// liveHeap returns the bytes of live heap objects after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fleetEngine grows a CubeFit fleet of the given size through the
// service's load model and returns it with the source of later tenants.
func fleetEngine(b *testing.B, tenants int) (*CubeFit, *workload.ClientSource) {
	b.Helper()
	cf, err := New(Config{Gamma: 2, K: 10})
	if err != nil {
		b.Fatal(err)
	}
	dist, err := workload.NewUniform(1, 15)
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.NewClientSource(workload.DefaultLoadModel(), dist, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		if err := cf.Place(src.Next()); err != nil {
			b.Fatal(err)
		}
	}
	return cf, src
}
