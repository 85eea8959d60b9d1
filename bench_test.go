// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md §4 for the experiment index) plus the ablations of DESIGN.md
// §7. Each benchmark iteration performs one full (reduced-scale)
// experiment; run the cmd/ CLIs for the paper-scale versions.
package cubefit_test

import (
	"fmt"
	"testing"

	"cubefit"

	"cubefit/internal/baseline"
	"cubefit/internal/cluster"
	"cubefit/internal/core"
	"cubefit/internal/costs"
	"cubefit/internal/headroom"
	"cubefit/internal/packing"
	"cubefit/internal/ratio"
	"cubefit/internal/rfi"
	"cubefit/internal/sim"
	"cubefit/internal/workload"
)

const (
	benchTenants = 5000
	benchSeed    = 20170605
)

func benchModel() workload.LoadModel { return workload.DefaultLoadModel() }

func benchTenantStream(b *testing.B, dist workload.Distribution) []packing.Tenant {
	b.Helper()
	src, err := workload.NewClientSource(benchModel(), dist, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return workload.Take(src, benchTenants)
}

func uniform15(b *testing.B) workload.Distribution {
	b.Helper()
	u, err := workload.NewUniform(1, 15)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func zipf3(b *testing.B) workload.Distribution {
	b.Helper()
	z, err := workload.NewZipf(3, workload.MaxClientsPerServer)
	if err != nil {
		b.Fatal(err)
	}
	return z
}

// --- E1: Figure 1 (worked packing example) -------------------------------

func BenchmarkFigure1Example(b *testing.B) {
	loads := []float64{0.6, 0.3, 0.6, 0.78, 0.12, 0.36}
	for i := 0; i < b.N; i++ {
		for _, gamma := range []int{2, 3} {
			c, err := cubefit.New(cubefit.WithReplication(gamma), cubefit.WithClasses(5))
			if err != nil {
				b.Fatal(err)
			}
			for id, load := range loads {
				if err := c.Place(cubefit.Tenant{ID: cubefit.TenantID(id), Load: load}); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E4: Theorem 2 (competitive ratio upper bounds) -----------------------

func BenchmarkTheorem2Gamma2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bound, err := ratio.UpperBound(2, 200)
		if err != nil {
			b.Fatal(err)
		}
		if bound.Ratio < 1.5 || bound.Ratio > 1.7 {
			b.Fatalf("γ=2 bound %v drifted from the paper's 1.59", bound.Ratio)
		}
	}
}

func BenchmarkTheorem2Gamma3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bound, err := ratio.UpperBound(3, 200)
		if err != nil {
			b.Fatal(err)
		}
		if bound.Ratio < 1.55 || bound.Ratio > 1.75 {
			b.Fatalf("γ=3 bound %v drifted from the paper's 1.625", bound.Ratio)
		}
	}
}

// --- E5: Figure 5 (worst-case failure latency) ----------------------------

func benchFigure5(b *testing.B, factory sim.Factory, dist workload.Distribution) {
	model := benchModel()
	spec := sim.ClusterSpec{
		Servers:  20,
		Failures: []int{1, 2},
		Model:    model,
		Dist:     dist,
		Seed:     benchSeed,
		Cluster:  cluster.Config{SLA: 5, Warmup: 10, Measure: 30, Seed: benchSeed},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := sim.RunCluster(spec, factory)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 2 {
			b.Fatalf("%d points", len(points))
		}
	}
}

func BenchmarkFigure5CubeFitGamma2Uniform(b *testing.B) {
	model := benchModel()
	benchFigure5(b, sim.CubeFitFactory(core.Config{Gamma: 2, K: 5}, &model), uniform15(b))
}

func BenchmarkFigure5CubeFitGamma3Uniform(b *testing.B) {
	model := benchModel()
	benchFigure5(b, sim.CubeFitFactory(core.Config{Gamma: 3, K: 5}, &model), uniform15(b))
}

func BenchmarkFigure5RFIUniform(b *testing.B) {
	benchFigure5(b, sim.RFIFactory(rfi.Config{Gamma: 2}), uniform15(b))
}

func BenchmarkFigure5CubeFitGamma3Zipf(b *testing.B) {
	model := benchModel()
	benchFigure5(b, sim.CubeFitFactory(core.Config{Gamma: 3, K: 5}, &model), zipf3(b))
}

// --- E6: Figure 6 (server savings sweep) ----------------------------------

func benchFigure6(b *testing.B, dist workload.Distribution) {
	model := benchModel()
	spec := sim.ConsolidationSpec{
		Tenants: benchTenants,
		Runs:    1,
		Seed:    benchSeed,
		Model:   model,
		Dist:    dist,
	}
	cubeF := sim.CubeFitFactory(core.Config{Gamma: 2, K: 10}, &model)
	rfiF := sim.RFIFactory(rfi.Config{Gamma: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunConsolidation(spec, cubeF, rfiF)
		if err != nil {
			b.Fatal(err)
		}
		if res.A.Servers.Mean >= res.B.Servers.Mean {
			b.Fatalf("CubeFit did not beat RFI: %+v", res)
		}
	}
}

func BenchmarkFigure6Uniform15(b *testing.B) { benchFigure6(b, uniform15(b)) }

func BenchmarkFigure6Zipf3(b *testing.B) { benchFigure6(b, zipf3(b)) }

func BenchmarkFigure6Sweep(b *testing.B) {
	dists, err := sim.DefaultSweep()
	if err != nil {
		b.Fatal(err)
	}
	model := benchModel()
	cubeF := sim.CubeFitFactory(core.Config{Gamma: 2, K: 10}, &model)
	rfiF := sim.RFIFactory(rfi.Config{Gamma: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dist := range dists {
			spec := sim.ConsolidationSpec{
				Tenants: 1000,
				Runs:    1,
				Seed:    benchSeed,
				Model:   model,
				Dist:    dist,
			}
			if _, err := sim.RunConsolidation(spec, cubeF, rfiF); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E7: Table I (yearly dollar savings) ----------------------------------

func BenchmarkTable1(b *testing.B) {
	model := benchModel()
	cubeF := sim.CubeFitFactory(core.Config{Gamma: 2, K: 10}, &model)
	rfiF := sim.RFIFactory(rfi.Config{Gamma: 2})
	pricing := costs.DefaultModel()
	dists := []workload.Distribution{uniform15(b), zipf3(b)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dist := range dists {
			spec := sim.ConsolidationSpec{
				Tenants: benchTenants,
				Runs:    1,
				Seed:    benchSeed,
				Model:   model,
				Dist:    dist,
			}
			res, err := sim.RunConsolidation(spec, cubeF, rfiF)
			if err != nil {
				b.Fatal(err)
			}
			row, err := sim.TableI(res, pricing)
			if err != nil {
				b.Fatal(err)
			}
			if row.YearlySavings <= 0 {
				b.Fatalf("no savings: %+v", row)
			}
		}
	}
}

// --- Ablations (DESIGN.md §7) ---------------------------------------------

// BenchmarkAblationFirstStage quantifies what the mature-bin Best Fit
// stage buys: servers used with and without it.
func BenchmarkAblationFirstStage(b *testing.B) {
	tenants := benchTenantStream(b, uniform15(b))
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cf, err := core.New(core.Config{Gamma: 2, K: 10, DisableFirstStage: disabled})
				if err != nil {
					b.Fatal(err)
				}
				if err := packing.PlaceAll(cf, tenants); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cf.Placement().NumUsedServers()), "servers")
			}
		})
	}
}

// BenchmarkAblationTinyPolicy compares the paper's empirical class-(K−1)
// placement with the theoretical multi-replica construction on a
// tiny-heavy workload.
func BenchmarkAblationTinyPolicy(b *testing.B) {
	tenants := benchTenantStream(b, zipf3(b))
	for _, policy := range []core.TinyPolicy{core.TinyClassKMinusOne, core.TinyMultiReplica} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cf, err := core.New(core.Config{Gamma: 2, K: 10, TinyPolicy: policy})
				if err != nil {
					b.Fatal(err)
				}
				if err := packing.PlaceAll(cf, tenants); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cf.Placement().NumUsedServers()), "servers")
			}
		})
	}
}

// BenchmarkAblationClasses sweeps the number of classes K ("as the number
// of servers is increased, increasing the number of classes will yield
// better performance", §V-A).
func BenchmarkAblationClasses(b *testing.B) {
	tenants := benchTenantStream(b, uniform15(b))
	for _, k := range []int{3, 5, 10, 15} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cf, err := core.New(core.Config{Gamma: 2, K: k})
				if err != nil {
					b.Fatal(err)
				}
				if err := packing.PlaceAll(cf, tenants); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cf.Placement().NumUsedServers()), "servers")
			}
		})
	}
}

// BenchmarkAblationMu sweeps RFI's interleaving parameter around the
// recommended 0.85.
func BenchmarkAblationMu(b *testing.B) {
	tenants := benchTenantStream(b, uniform15(b))
	for _, mu := range []float64{0.70, 0.85, 0.95} {
		b.Run(fmt.Sprintf("mu=%.2f", mu), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := rfi.New(rfi.Config{Gamma: 2, Mu: mu})
				if err != nil {
					b.Fatal(err)
				}
				if err := packing.PlaceAll(a, tenants); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(a.Placement().NumUsedServers()), "servers")
			}
		})
	}
}

// BenchmarkAblationPriceOfRobustness compares the robust algorithms with
// the non-robust Best Fit floor.
func BenchmarkAblationPriceOfRobustness(b *testing.B) {
	tenants := benchTenantStream(b, uniform15(b))
	algs := []struct {
		name string
		make func() (packing.Algorithm, error)
	}{
		{name: "best-fit-no-reserve", make: func() (packing.Algorithm, error) {
			return baseline.New(baseline.BestFit, 2)
		}},
		{name: "cubefit", make: func() (packing.Algorithm, error) {
			return core.New(core.Config{Gamma: 2, K: 10})
		}},
		{name: "rfi", make: func() (packing.Algorithm, error) {
			return rfi.New(rfi.Config{Gamma: 2})
		}},
	}
	for _, a := range algs {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg, err := a.make()
				if err != nil {
					b.Fatal(err)
				}
				if err := packing.PlaceAll(alg, tenants); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(alg.Placement().NumUsedServers()), "servers")
			}
		})
	}
}

// --- Micro-benchmarks: per-tenant placement cost ---------------------------

func BenchmarkPlaceCubeFit(b *testing.B) {
	model := benchModel()
	src, err := workload.NewClientSource(model, uniform15(b), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	cf, err := core.New(core.Config{Gamma: 2, K: 10, PruneSlack: model.Load(1) / 2 * 0.99})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cf.Place(src.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceRFI(b *testing.B) {
	src, err := workload.NewClientSource(benchModel(), uniform15(b), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	a, err := rfi.New(rfi.Config{Gamma: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Place(src.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Robustness headroom: incremental audit vs exhaustive rescan -----------

// headroomBenchTenants sizes the audited placement; the PR's acceptance
// bar is a ≥10× ns/op advantage for the incremental auditor at this scale.
const headroomBenchTenants = 1000

// benchHeadroomState builds a 1k-tenant CubeFit placement with the
// incremental auditor attached and settled.
func benchHeadroomState(b *testing.B) (*core.CubeFit, *headroom.Auditor) {
	b.Helper()
	src, err := workload.NewClientSource(benchModel(), uniform15(b), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	cf, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		b.Fatal(err)
	}
	a := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(a)
	if err := packing.PlaceAll(cf, workload.Take(src, headroomBenchTenants)); err != nil {
		b.Fatal(err)
	}
	a.Report() // settle the dirty queue so iterations start clean
	return cf, a
}

// BenchmarkHeadroomIncremental measures one audit refresh after a
// tenant-shaped mutation: mark the tenant's hosts dirty (MarkTenant, one
// host lookup), recompute only those entries, and read the minimum slack.
func BenchmarkHeadroomIncremental(b *testing.B) {
	cf, a := benchHeadroomState(b)
	tenants := cf.Placement().Tenants()
	if len(tenants) == 0 {
		b.Fatal("no placed tenants")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MarkTenant(tenants[i%len(tenants)].ID)
		if _, ok := a.Min(); !ok {
			b.Fatal("no audited servers")
		}
	}
}

// BenchmarkHeadroomExhaustive is the full-rescan reference on the same
// placement: every server's top-(γ−1) shared sum recomputed per iteration.
func BenchmarkHeadroomExhaustive(b *testing.B) {
	cf, _ := benchHeadroomState(b)
	p := cf.Placement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := headroom.Exhaustive(p, 0)
		if rep.MinServer < 0 {
			b.Fatal("no audited servers")
		}
	}
}

func BenchmarkWorstCasePlanning(b *testing.B) {
	model := benchModel()
	src, err := workload.NewClientSource(model, uniform15(b), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	factory := sim.CubeFitFactory(core.Config{Gamma: 2, K: 5}, &model)
	alg, _, err := sim.FillToCapacity(factory, src, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cubefit.WorstCaseFailures(alg.Placement(), 2); err != nil {
			b.Fatal(err)
		}
	}
}
