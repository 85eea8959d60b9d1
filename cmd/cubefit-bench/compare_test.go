package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(name string, ns, bytesOp, allocs float64) Benchmark {
	return Benchmark{
		Name:       name,
		Iterations: 100,
		Metrics:    map[string]float64{"ns/op": ns, "B/op": bytesOp, "allocs/op": allocs},
	}
}

func TestCompareNoRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkFast", 1000, 512, 10),
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkFast", 400, 100, 2),
	}})
	var out bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath}, nil, &out); err != nil {
		t.Fatalf("improvement reported as failure: %v", err)
	}
	if !strings.Contains(out.String(), "improved") {
		t.Errorf("expected an 'improved' marker in:\n%s", out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no metric regressed, but output says REGRESSION:\n%s", out.String())
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkSlow", 1000, 512, 10),
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkSlow", 1500, 512, 10),
	}})
	var out bytes.Buffer
	err := run([]string{"-compare", oldPath, newPath}, nil, &out)
	if !errors.Is(err, ErrRegression) {
		t.Fatalf("err = %v, want ErrRegression", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("expected REGRESSION marker in:\n%s", out.String())
	}
}

func TestCompareThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkBorderline", 1000, 512, 10),
	}})
	// +50% ns/op: a regression at the default 0.20 threshold, tolerated at 0.60.
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkBorderline", 1500, 512, 10),
	}})
	var out bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath, "-threshold", "0.60"}, nil, &out); err != nil {
		t.Fatalf("within threshold, got %v", err)
	}
	out.Reset()
	if err := run([]string{"-compare", "-threshold", "0.10", oldPath, newPath}, nil, &out); !errors.Is(err, ErrRegression) {
		t.Fatalf("err = %v, want ErrRegression at tight threshold", err)
	}
}

func TestCompareAddedAndRemovedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkGone", 1000, 512, 10),
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkNew", 1000, 512, 10),
	}})
	var out bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath}, nil, &out); err != nil {
		t.Fatalf("added/removed benchmarks must not count as regressions: %v", err)
	}
	for _, want := range []string{"BenchmarkGone", "removed", "BenchmarkNew", "new"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-compare"},
		{"-compare", "only-one.json"},
		{"-compare", "a.json", "b.json", "-threshold"},
		{"-compare", "a.json", "b.json", "-threshold", "nope"},
		{"-compare", "a.json", "b.json", "-threshold", "-1"},
	} {
		err := run(args, nil, &out)
		if err == nil {
			t.Errorf("args %v: expected error", args)
		}
		if errors.Is(err, ErrRegression) {
			t.Errorf("args %v: usage error must not be a regression (exit 2): %v", args, err)
		}
	}
	if err := run([]string{"-compare", "/nonexistent/a.json", "/nonexistent/b.json"}, nil, &out); err == nil || errors.Is(err, ErrRegression) {
		t.Errorf("missing file: err = %v, want non-regression error", err)
	}
}

// ledger returns a report of two benchmarks from two packages, each
// repeated five times with spread, as `go test -count 5` writes them in
// turn; scale multiplies BenchmarkB's ns/op in every repetition.
func ledger(scale float64) Report {
	var rep Report
	for i := 0; i < 5; i++ {
		spread := float64(i%3) * 0.3 // up to +60% between repetitions
		a := bench("BenchmarkA", 1000*(1+spread), 512, 10)
		a.Pkg = "cubefit/internal/core"
		rep.Benchmarks = append(rep.Benchmarks, a)
	}
	for i := 0; i < 5; i++ {
		b := bench("BenchmarkB", scale*2000*(1+float64((i+1)%3)*0.3), 64, 1)
		b.Pkg = "cubefit/internal/api"
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep
}

// TestCompareRepetitionsWithItself compares a ledger of five repetitions
// per benchmark with itself: the medians are equal, so no row regresses.
func TestCompareRepetitionsWithItself(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "perf.json", ledger(1))
	var out bytes.Buffer
	if err := run([]string{"-compare", path, path}, nil, &out); err != nil {
		t.Fatalf("a ledger compared with itself: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a ledger compared with itself printed a regression:\n%s", out.String())
	}
	// One header and one row per benchmark and unit.
	if rows := strings.Count(out.String(), "\n"); rows != 1+2*len(comparedUnits) {
		t.Errorf("%d lines, want %d:\n%s", rows, 1+2*len(comparedUnits), out.String())
	}
}

// TestCompareReportsTheSlowerBenchmark multiplies one benchmark's ns/op by
// 1.5 in every repetition: exactly that row regresses, by 50%.
func TestCompareReportsTheSlowerBenchmark(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", ledger(1))
	newPath := writeReport(t, dir, "new.json", ledger(1.5))
	var out bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath}, nil, &out); !errors.Is(err, ErrRegression) {
		t.Fatalf("err = %v, want ErrRegression\n%s", err, out.String())
	}
	var regressed []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "REGRESSION") {
			regressed = append(regressed, strings.Join(strings.Fields(line), " "))
		}
	}
	if want := "BenchmarkB ns/op 2600 3900 +50.0% REGRESSION"; len(regressed) != 1 || regressed[0] != want {
		t.Errorf("regressed rows %q, want [%q]\n%s", regressed, want, out.String())
	}
}

// TestParseRecordsPackagePerRow parses a ledger of two packages' runs:
// each row names its own package.
func TestParseRecordsPackagePerRow(t *testing.T) {
	in := "pkg: cubefit/internal/core\nBenchmarkA-2 10 100 ns/op\n" +
		"pkg: cubefit/internal/api\nBenchmarkB-2 10 200 ns/op\n"
	rep, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Pkg != "cubefit/internal/core" || rep.Benchmarks[1].Pkg != "cubefit/internal/api" {
		t.Errorf("rows = %+v, want BenchmarkA in internal/core and BenchmarkB in internal/api", rep.Benchmarks)
	}
}
