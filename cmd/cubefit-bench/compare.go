package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// ErrRegression is returned by the compare mode when at least one tracked
// metric regressed beyond the threshold; main translates it to exit code 2
// so CI can distinguish "benchmarks got slower" from operational errors.
var ErrRegression = errors.New("benchmark regression beyond threshold")

// comparedUnits are the metrics the diff tracks, in display order. Lower
// is better for all of them; custom units (e.g. "servers") are ignored
// because their direction is benchmark-specific, and a unit absent from
// either report is skipped.
var comparedUnits = []string{"ns/op", "B/op", "allocs/op"}

// defaultThreshold is the relative slowdown tolerated before a metric
// counts as a regression (benchmarks on shared machines are noisy).
const defaultThreshold = 0.20

// runCompare implements `cubefit-bench -compare old.json new.json
// [-threshold f]`: it diffs two JSON reports produced by this tool and
// prints a per-benchmark table of the tracked metrics. It returns
// ErrRegression when any metric grew by more than threshold.
func runCompare(args []string, stdout io.Writer) error {
	threshold := defaultThreshold
	var paths []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-threshold" {
			if i+1 == len(args) {
				return errors.New("-threshold needs a value")
			}
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil || v < 0 {
				return fmt.Errorf("invalid threshold %q", args[i+1])
			}
			threshold = v
			i++
			continue
		}
		paths = append(paths, args[i])
	}
	if len(paths) != 2 {
		return errors.New("usage: cubefit-bench -compare old.json new.json [-threshold 0.20]")
	}
	oldRep, err := loadReport(paths[0])
	if err != nil {
		return err
	}
	newRep, err := loadReport(paths[1])
	if err != nil {
		return err
	}
	regressions := compare(stdout, oldRep, newRep, threshold)
	if regressions > 0 {
		return fmt.Errorf("%w: %d metric(s) worse than +%.0f%%", ErrRegression, regressions, threshold*100)
	}
	return nil
}

func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compare prints the metric diff of every benchmark present in both
// reports (in the new report's order) and returns the regression count.
// Benchmarks present in only one report are listed but never counted as
// regressions — adding or retiring a benchmark is not a slowdown.
func compare(w io.Writer, oldRep, newRep Report, threshold float64) int {
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	fmt.Fprintf(w, "%-52s %-10s %14s %14s %8s\n", "benchmark", "unit", "old", "new", "delta")
	regressions := 0
	seen := make(map[string]bool, len(newRep.Benchmarks))
	for _, nb := range newRep.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-52s %-10s %14s %14s %8s\n", nb.Name, "-", "(absent)", "", "new")
			continue
		}
		for _, unit := range comparedUnits {
			nv, nok := nb.Metrics[unit]
			ov, ook := ob.Metrics[unit]
			if !nok || !ook {
				continue
			}
			status := ""
			var delta float64
			if ov != 0 {
				delta = (nv - ov) / ov
			} else if nv != 0 {
				delta = 1
			}
			switch {
			case delta > threshold:
				status = "  REGRESSION"
				regressions++
			case delta < -threshold:
				status = "  improved"
			}
			fmt.Fprintf(w, "%-52s %-10s %14.4g %14.4g %+7.1f%%%s\n",
				nb.Name, unit, ov, nv, delta*100, status)
		}
	}
	var removed []string
	for name := range oldBy {
		if !seen[name] {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-52s %-10s %14s %14s %8s\n", name, "-", "", "(absent)", "removed")
	}
	return regressions
}
