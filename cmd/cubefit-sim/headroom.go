package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/rfi"
	"cubefit/internal/workload"
)

// runHeadroomCurves drives CubeFit and RFI over the same deterministic
// uniform(1..15) arrival sequence with an incremental headroom auditor
// attached to each, and writes the per-arrival safety-margin curves as CSV
// to path: after every admission, the minimum worst-case failover slack of
// each engine's placement. The curves contrast how much robustness margin
// CubeFit's invariant keeps versus RFI's single-failure interleaving as
// the cluster fills.
func runHeadroomCurves(out io.Writer, path string, tenants, gamma, k int, mu float64, seed uint64) (err error) {
	model := workload.DefaultLoadModel()
	// The prune slack the consolidation sweep derives from the load
	// model, so the curves place tenants as the Figure 6 experiments do.
	cf, err := core.New(core.Config{Gamma: gamma, K: k, PruneSlack: model.Load(1) / float64(gamma) * 0.99})
	if err != nil {
		return err
	}
	ri, err := rfi.New(rfi.Config{Gamma: gamma, Mu: mu})
	if err != nil {
		return err
	}
	cubeAudit := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(cubeAudit)
	rfiAudit := headroom.New(ri.Placement(), 0)
	ri.SetRecorder(rfiAudit)

	u, err := workload.NewUniform(1, 15)
	if err != nil {
		return err
	}
	src, err := workload.NewClientSource(model, u, seed)
	if err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	defer func() {
		// The CSV is the run's durable artifact: a dropped flush or close
		// error would silently truncate it, so both join the result.
		if ferr := w.Flush(); err == nil && ferr != nil {
			err = fmt.Errorf("writing %s: %w", path, ferr)
		}
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing %s: %w", path, cerr)
		}
	}()
	if _, err := fmt.Fprintln(w,
		"arrival,tenant,load,cubefit_min_slack,cubefit_servers,rfi_min_slack,rfi_servers"); err != nil {
		return err
	}

	cubeTrough, rfiTrough := 1.0, 1.0
	for i, t := range workload.Take(src, tenants) {
		// Rejections still shift headroom (rolled-back admissions may have
		// opened servers), so sample unconditionally.
		_ = cf.Place(t)
		_ = ri.Place(t)
		cubeMin, _ := cubeAudit.Min()
		rfiMin, _ := rfiAudit.Min()
		if cubeMin.Slack < cubeTrough {
			cubeTrough = cubeMin.Slack
		}
		if rfiMin.Slack < rfiTrough {
			rfiTrough = rfiMin.Slack
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%.6f,%.6f,%d,%.6f,%d\n",
			i+1, int(t.ID), t.Load,
			cubeMin.Slack, cf.Placement().NumServers(),
			rfiMin.Slack, ri.Placement().NumServers()); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}

	cubeRep := cubeAudit.Report()
	rfiRep := rfiAudit.Report()
	fmt.Fprintf(out, "Headroom curves: %d uniform(1..15) tenants, seed %d -> %s\n", tenants, seed, path)
	fmt.Fprintf(out, "  %-22s final min %.4f (p50 %.4f, trough %.4f, %d servers)\n",
		cf.Name(), cubeRep.MinSlack, cubeRep.P50Slack, cubeTrough, cf.Placement().NumServers())
	fmt.Fprintf(out, "  %-22s final min %.4f (p50 %.4f, trough %.4f, %d servers)\n",
		ri.Name(), rfiRep.MinSlack, rfiRep.P50Slack, rfiTrough, ri.Placement().NumServers())
	return nil
}
