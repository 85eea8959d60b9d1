package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"cubefit/internal/stats"
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
// prints a per-benchmark table of the tracked metrics' medians. It returns
// ErrRegression when any median grew by more than threshold.
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

// compare prints the diff of the medians of every benchmark present in
// both reports, one row per benchmark and tracked unit (in the new
// report's order), and returns the regression count. A median is taken
// over all the repetitions a report holds of one benchmark name.
// Benchmarks present in only one report are listed but never counted as
// regressions — adding or retiring a benchmark is not a slowdown.
func compare(w io.Writer, oldRep, newRep Report, threshold float64) int {
	oldNames, oldBy := samples(oldRep)
	newNames, newBy := samples(newRep)
	fmt.Fprintf(w, "%-52s %-10s %14s %14s %8s\n", "benchmark", "unit", "old", "new", "delta")
	regressions := 0
	for _, name := range newNames {
		om, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "%-52s %-10s %14s %14s %8s\n", name, "-", "(absent)", "", "new")
			continue
		}
		for _, unit := range comparedUnits {
			nvs, nok := newBy[name][unit]
			ovs, ook := om[unit]
			if !nok || !ook {
				continue
			}
			nv, _ := stats.PercentileInPlace(nvs, 50)
			ov, _ := stats.PercentileInPlace(ovs, 50)
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
				name, unit, ov, nv, delta*100, status)
		}
	}
	for _, name := range oldNames {
		if _, ok := newBy[name]; !ok {
			fmt.Fprintf(w, "%-52s %-10s %14s %14s %8s\n", name, "-", "", "(absent)", "removed")
		}
	}
	return regressions
}

// samples returns a report's benchmark names in order of first appearance
// and, by name, each unit's values over the name's repetitions.
func samples(rep Report) ([]string, map[string]map[string][]float64) {
	var names []string
	by := map[string]map[string][]float64{}
	for _, b := range rep.Benchmarks {
		if by[b.Name] == nil {
			names = append(names, b.Name)
			by[b.Name] = map[string][]float64{}
		}
		for unit, v := range b.Metrics {
			by[b.Name][unit] = append(by[b.Name][unit], v)
		}
	}
	return names, by
}
