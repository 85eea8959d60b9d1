package main

import (
	"flag"
	"fmt"
	"io"

	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/report"
)

// point is one sample of the headroom series, taken after an operation
// of the log (an admission, a rejected admission or a departure) is
// replayed.
type point struct {
	// Op is the operation's 1-based position in the log.
	Op     int
	Kind   obs.Kind
	Tenant int
	// Tenants and Servers are the placement population after the
	// operation.
	Tenants int
	Servers int
	// MinSlack and MinServer are the worst-case headroom at this point.
	MinSlack  float64
	MinServer int
	// BelowRedLine and Overloaded are the aggregate counts at this point.
	BelowRedLine int
	Overloaded   int
}

// runHeadroom replays an operation log through a fresh CubeFit with the
// incremental robustness headroom auditor attached as its recorder, and
// reports the safety-margin time series: one sample per operation, the
// trough (the tightest the placement ever got), and the final per-server
// audit with each worst failure set attributed to its contributing
// tenants.
func runHeadroom(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cubefit-inspect headroom", flag.ContinueOnError)
	var (
		walPath = fs.String("wal", "", "operation log to replay (required)")
		k       = fs.Int("k", core.DefaultConfig().K, "CubeFit classes of the run that wrote the log (cubefit-server -k)")
		redline = fs.Float64("redline", headroom.DefaultRedLine, "slack threshold for the below-red-line count")
		top     = fs.Int("top", 5, "show the N servers with the least final slack")
		csv     = fs.Bool("csv", false, "emit the full time series as CSV instead of the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walPath == "" {
		return fmt.Errorf("headroom: -wal is required")
	}
	var note io.Writer
	if !*csv {
		note = out // the CSV stays machine-readable
	}
	cf, events, err := openLog(*walPath, *k, note)
	if err != nil {
		return err
	}
	p := cf.Placement()
	a := headroom.New(p, *redline)
	cf.SetRecorder(a)
	var series []point
	err = replayLog(cf, events, *walPath, func(n int, op obs.Op) {
		min, _ := a.Min()
		_, below, overloaded, _ := a.Aggregates()
		series = append(series, point{
			Op: n, Kind: op.Kind, Tenant: op.Tenant,
			Tenants: p.NumTenants(), Servers: p.NumServers(),
			MinSlack: min.Slack, MinServer: min.Server,
			BelowRedLine: below, Overloaded: overloaded,
		})
	})
	if err != nil {
		return err
	}

	if *csv {
		fmt.Fprintln(out, "op,kind,tenant,tenants,servers,min_slack,min_server,below_redline,overloaded")
		for _, pt := range series {
			fmt.Fprintf(out, "%d,%s,%d,%d,%d,%.6f,%d,%d,%d\n",
				pt.Op, pt.Kind, pt.Tenant, pt.Tenants, pt.Servers,
				pt.MinSlack, pt.MinServer, pt.BelowRedLine, pt.Overloaded)
		}
		return nil
	}

	rep := a.Report()
	fmt.Fprintf(out, "%d operations replayed (γ=%d), %d samples\n", len(series), rep.Gamma, len(series))
	fmt.Fprintf(out, "final: %d tenants on %d servers, min slack %.4f (server %d), p50 %.4f\n",
		p.NumTenants(), p.NumServers(), rep.MinSlack, rep.MinServer, rep.P50Slack)
	fmt.Fprintf(out, "red line %.3f: %d servers below, %d overloaded under worst-case failover\n",
		rep.RedLine, rep.BelowRedLine, rep.Overloaded)

	if len(series) > 0 {
		trough := series[0]
		for _, pt := range series[1:] {
			if pt.MinSlack < trough.MinSlack {
				trough = pt
			}
		}
		fmt.Fprintf(out, "trough: min slack %.4f on server %d (%s of tenant %d, %d tenants placed)\n",
			trough.MinSlack, trough.MinServer, trough.Kind, trough.Tenant, trough.Tenants)
	}

	worst := a.Worst(*top)
	if len(worst) == 0 {
		return nil
	}
	fmt.Fprintf(out, "\ntightest %d servers:\n", len(worst))
	tb := report.NewTable("Server", "Level", "Reserve", "Slack", "Worst failure set", "Contributing tenants")
	for _, e := range worst {
		contribs, err := headroom.Contributors(p, e.Server, e.WorstSet)
		if err != nil {
			return err
		}
		tenants := make([]int, 0, 8)
		for _, c := range contribs {
			for _, ts := range c.Tenants {
				tenants = append(tenants, ts.Tenant)
			}
		}
		tb.AddRow(
			fmt.Sprintf("%d", e.Server),
			fmt.Sprintf("%.3f", e.Level),
			fmt.Sprintf("%.3f", e.Reserve),
			fmt.Sprintf("%.3f", e.Slack),
			fmt.Sprintf("%v", e.WorstSet),
			fmt.Sprintf("%v", tenants),
		)
	}
	return tb.Render(out)
}
