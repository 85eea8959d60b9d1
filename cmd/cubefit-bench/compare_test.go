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
