// Command cubefit-sim regenerates the paper's large-scale consolidation
// results: Figure 6 (percentage server savings of CubeFit over RFI across
// tenant distributions, with 95% confidence intervals) and Table I (yearly
// dollar savings for the uniform and zipfian system workloads).
//
// Usage:
//
//	cubefit-sim [-tenants 50000] [-runs 10] [-k 10] [-gamma 2] [-mu 0.85]
//	            [-seed 1] [-table1] [-quick] [-workers N]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//	cubefit-sim -wal run.wal [-trace out.json] [-tenants N] [-seed S]
//	cubefit-sim -headroom curves.csv [-tenants N] [-seed S]
//
// Without flags it runs the full paper configuration (10 runs × 50,000
// tenants × 11 distributions), which takes a few minutes; -quick reduces
// the scale for a fast smoke run. -workers N simulates the independent
// runs of each distribution on N goroutines; the output is bit-identical
// to -workers 1 because every run draws from its own pre-derived seed and
// results merge in run order. -cpuprofile/-memprofile write pprof profiles
// of the whole invocation, so future performance work starts from data.
//
// With -wal (and/or -trace) it instead performs one deterministic
// uniform(1..15) CubeFit run at cubefit-server's configuration, writing
// its operation log to the -wal file (a new file each run) and the final
// placement snapshot to the -trace file. The log is the run's only
// persisted stream: `cubefit-inspect explain -wal run.wal [out.json]` and
// `cubefit-inspect headroom -wal run.wal` regenerate its decision stream
// by replaying it.
//
// With -headroom it runs CubeFit and RFI over the same arrival sequence
// with incremental robustness headroom auditors attached and writes the
// per-arrival minimum worst-case failover slack of both engines as CSV —
// the safety-margin curves contrasting CubeFit's γ−1-failure reserve with
// RFI's single-failure interleaving.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cubefit/internal/core"
	"cubefit/internal/costs"
	"cubefit/internal/obs"
	"cubefit/internal/report"
	"cubefit/internal/rfi"
	"cubefit/internal/sim"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cubefit-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cubefit-sim", flag.ContinueOnError)
	var (
		tenants = fs.Int("tenants", 50000, "tenants per run")
		runs    = fs.Int("runs", 10, "independent runs per distribution")
		k       = fs.Int("k", 10, "CubeFit classes (paper: 10 for simulations)")
		gamma   = fs.Int("gamma", 2, "replicas per tenant")
		mu      = fs.Float64("mu", rfi.DefaultMu, "RFI interleaving parameter")
		seed    = fs.Uint64("seed", 1, "master random seed")
		table1  = fs.Bool("table1", false, "print only Table I (uniform 1..15 and zipf(3))")
		quick   = fs.Bool("quick", false, "reduced scale (2000 tenants, 3 runs)")
		timing  = fs.Bool("timing", false, "also measure placement wall-clock time per algorithm")
		walPath = fs.String("wal", "", "traced run: write the run's operation log to this file")
		trc     = fs.String("trace", "", "traced run: write the final placement snapshot to this file")
		hdroom  = fs.String("headroom", "", "headroom run: write per-arrival CubeFit vs RFI min-slack curves as CSV to this file")
		workers = fs.Int("workers", 1, "concurrent runs per distribution (results identical for any value)")
		cpuprof = fs.String("cpuprofile", "", "write a CPU profile of the invocation to this file")
		memprof = fs.String("memprofile", "", "write an allocation profile of the invocation to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *quick {
		*tenants, *runs = 2000, 3
	}
	if *hdroom != "" {
		return runHeadroomCurves(out, *hdroom, *tenants, *gamma, *k, *mu, *seed)
	}
	if *walPath != "" || *trc != "" {
		if *quick {
			*tenants = 2000
		}
		return runTraced(out, *walPath, *trc, *tenants, *gamma, *k, *seed)
	}

	model := workload.DefaultLoadModel()
	cubeFactory := sim.CubeFitFactory(core.Config{Gamma: *gamma, K: *k}, &model)
	rfiFactory := sim.RFIFactory(rfi.Config{Gamma: *gamma, Mu: *mu})

	dists, err := sim.DefaultSweep()
	if err != nil {
		return err
	}
	if *table1 {
		dists = dists[:0]
		u, err := workload.NewUniform(1, 15)
		if err != nil {
			return err
		}
		z, err := workload.NewZipf(3, workload.MaxClientsPerServer)
		if err != nil {
			return err
		}
		dists = append(dists, u, z)
	}

	fmt.Fprintf(out, "Consolidation simulation: %s vs %s, %d tenants × %d runs\n\n",
		cubeFactory.Name, rfiFactory.Name, *tenants, *runs)

	var results []sim.ConsolidationResult
	for _, dist := range dists {
		spec := sim.ConsolidationSpec{
			Tenants: *tenants,
			Runs:    *runs,
			Seed:    *seed,
			Model:   model,
			Dist:    dist,
			Workers: *workers,
		}
		res, err := sim.RunConsolidation(spec, cubeFactory, rfiFactory)
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Fprintf(out, "  %-22s rfi=%6.0f  cubefit=%6.0f  savings=%5.1f%% ±%.1f\n",
			res.Distribution, res.B.Servers.Mean, res.A.Servers.Mean,
			res.SavingsPct.Mean, res.SavingsPct.Half)
	}
	fmt.Fprintln(out)

	if !*table1 {
		// Figure 6: savings bar chart.
		bars := make([]report.Bar, 0, len(results))
		for _, r := range results {
			bars = append(bars, report.Bar{
				Label: r.Distribution,
				Value: r.SavingsPct.Mean,
				Err:   r.SavingsPct.Half,
			})
		}
		if err := report.BarChart(out, "Figure 6: % server savings of CubeFit over RFI (95% CI)", "%", 30, bars); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	// Table I for the two system distributions (when present in the sweep).
	tb := report.NewTable("Distribution", "RFI Servers", "CubeFit Saved", "Dollar Savings")
	model2 := costs.DefaultModel()
	printed := false
	for _, r := range results {
		if !*table1 && r.Distribution != "uniform(1..15)" && r.Distribution != "zipf(s=3, 1..52)" {
			continue
		}
		row, err := sim.TableI(r, model2)
		if err != nil {
			return err
		}
		tb.AddRow(row.Distribution,
			fmt.Sprintf("%d", row.BaselineServers),
			fmt.Sprintf("%d", row.SavedServers),
			report.Money(row.YearlySavings))
		printed = true
	}
	if printed {
		fmt.Fprintln(out, "Table I: yearly cost savings of CubeFit over RFI")
		if err := tb.Render(out); err != nil {
			return err
		}
	}

	if *timing {
		u, err := workload.NewUniform(1, 15)
		if err != nil {
			return err
		}
		src, err := workload.NewClientSource(model, u, *seed)
		if err != nil {
			return err
		}
		ts := workload.Take(src, *tenants)
		fmt.Fprintf(out, "\nPlacement time for %d uniform(1..15) tenants:\n", *tenants)
		for _, f := range []sim.Factory{cubeFactory, rfiFactory} {
			res, err := sim.MeasureTiming(f, ts)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-22s total %v  (%v/tenant, %d servers)\n",
				res.Algorithm, res.Total.Round(time.Millisecond),
				res.PerTenant.Round(time.Microsecond), res.Servers)
		}
	}
	return nil
}

// startProfiles starts CPU profiling and/or arranges a heap profile dump,
// returning a stop function to defer. Empty paths are skipped. The heap
// profile is written when the stop function runs, after a GC, so it
// reflects live allocations at the end of the run plus cumulative
// allocation counts.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			if cerr := cpuFile.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "cubefit-sim: cpuprofile:", cerr)
			}
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cubefit-sim: cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cubefit-sim: memprofile:", err)
				return
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "cubefit-sim: memprofile:", err)
				}
			}()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cubefit-sim: memprofile:", err)
			}
		}
	}, nil
}

// runTraced performs one deterministic uniform(1..15) CubeFit run at
// cubefit-server's configuration, so a replay of its log at the server's
// settings reproduces the run's decision stream event for event. walPath
// receives the run's operation log; tracePath (optional) receives the
// final placement snapshot. Either may be empty.
func runTraced(out io.Writer, walPath, tracePath string, tenants, gamma, k int, seed uint64) (err error) {
	model := workload.DefaultLoadModel()
	cf, err := core.New(core.Config{Gamma: gamma, K: k})
	if err != nil {
		return err
	}

	var wal *obs.WAL
	if walPath != "" {
		// A new file, not OpenWAL's append: a second run to the same path
		// must not concatenate two histories.
		f, err := os.Create(walPath)
		if err != nil {
			return err
		}
		wal = obs.NewWAL(f)
		defer func() {
			// The log is the run's durable artifact: a failed final
			// commit or close would silently truncate it, so it joins the
			// function result.
			if cerr := wal.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("writing %s: %w", walPath, cerr)
			}
		}()
		cf.SetRecorder(wal)
	}

	u, err := workload.NewUniform(1, 15)
	if err != nil {
		return err
	}
	src, err := workload.NewClientSource(model, u, seed)
	if err != nil {
		return err
	}
	rejected := 0
	for _, t := range workload.Take(src, tenants) {
		if err := cf.Place(t); err != nil {
			rejected++
		}
	}

	st := cf.Stats()
	fmt.Fprintf(out, "Traced run: %d uniform(1..15) tenants, seed %d\n", tenants, seed)
	fmt.Fprintf(out, "  first-stage=%d regular=%d tiny=%d rejected=%d servers=%d\n",
		st.FirstStageTenants, st.RegularTenants, st.TinyTenants, rejected,
		cf.Placement().NumServers())

	if wal != nil {
		fmt.Fprintf(out, "  %d operations -> %s\n", wal.Count(), walPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		werr := trace.Write(f, cf.Placement())
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("writing %s: %w", tracePath, werr)
		}
		if cerr != nil {
			return fmt.Errorf("writing %s: %w", tracePath, cerr)
		}
		fmt.Fprintf(out, "  snapshot -> %s\n", tracePath)
	}
	return nil
}
