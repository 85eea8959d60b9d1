// Command perfbench is the repository's end-to-end benchmark. It boots the
// placement service in process as `cubefit-server -wal` does, drives it
// over loopback HTTP with a seeded operation stream, checks the outcome and
// prints every metric by name and unit. README.md describes the workloads,
// the metrics and the layers they measure.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch-grow|single-churn|restart --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, from an untraced run with a median of three
// set-ups. With --trace 1 they are the per-layer ones, from a run through
// wrappers around the service's public seams, preceded by an untraced run
// of the same length for the tracing overhead. A failed correctness check
// prints the reason to standard error, no result, and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// wallNow reads the wall clock. Every figure the benchmark reports is real
// elapsed time, so it reads the clock directly rather than through the
// injectable clock of internal/clock.
func wallNow() time.Time {
	return time.Now() //cubefit:vet-allow wallclock -- the benchmark measures real time
}

// setupsPerRun is how many times an untraced run sets up; it reports the
// median set-up time and measures on the last fleet.
const setupsPerRun = 3

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "batch-grow, single-churn or restart")
	seed := fs.Uint64("seed", 1, "seed of the generated operations")
	seconds := fs.Int("seconds", 20, "length of the measured phase; batch-grow admits a fixed number of tenants sized from it")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics through traced wrappers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	p = p.sized(*seconds)
	d := time.Duration(*seconds) * time.Second
	prov, err := provenance(p, *seed, *seconds)
	if err != nil {
		return err
	}
	var metrics []metric
	var attempted int
	if *trace == 0 {
		res, err := runWorkload(p, *seed, d, setupsPerRun, nil)
		if err != nil {
			return err
		}
		attempted = res.phase.ops
		metrics = res.endToEnd()
		printProvenance(stdout, prov)
		printMetrics(stdout, "end-to-end", metrics)
		printExtras(stdout, res)
	} else {
		rep, err := runTraced(p, *seed, d, workDir)
		if err != nil {
			return err
		}
		attempted = rep.traced.phase.ops
		metrics = rep.layers
		printProvenance(stdout, prov)
		rep.print(stdout)
	}
	return printResult(stdout, attempted, metrics)
}

// printExtras prints figures that are not end-to-end metrics but that a
// reader of this workload looks for.
func printExtras(w io.Writer, r *result) {
	ph := r.phase
	fmt.Fprintf(w, "samples: %d operations timed, %d tenant operations acked in %.3f s\n",
		len(ph.lat), ph.ops, ph.elapsed.Seconds())
	fmt.Fprintf(w, "p90_ms %.6f ms; p99_ms has %d operations above it\n", percentile(ph.lat, 90), len(ph.lat)/100)
	fmt.Fprintf(w, "fleet: %d live tenants on %d used servers, lower bound %d\n",
		len(ph.live), ph.state.UsedServers, r.lowerLB)
	if r.p.phase == phaseRestart {
		fmt.Fprintf(w, "recover_s %.6f s (median of %d boots of a %d-operation, %d-byte log)\n",
			median(ph.lat)/1e3, len(ph.lat), ph.loggedOps, ph.walBytes)
	}
	fmt.Fprintf(w, "setup_s runs: %v\n", r.setups)
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
}

// printResult writes the result line the benchmark contract asks for. It
// is only reached once every correctness check has passed.
func printResult(w io.Writer, attempted int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: attempted, Metrics: map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
