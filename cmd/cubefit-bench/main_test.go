package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cubefit
cpu: AMD EPYC 7B13
BenchmarkPlaceCubeFit-8   	   10000	     13038 ns/op	     974 B/op	      11 allocs/op
BenchmarkPlaceRFI-8       	   20000	      6000 ns/op	     706 B/op	       9 allocs/op
BenchmarkAblationClasses/k=10-8 	       1	1200000000 ns/op	       119.0 servers	 1000 B/op	       5 allocs/op
some benchmark log line
PASS
ok  	cubefit	231.718s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("header = %q/%q, want linux/amd64", rep.Goos, rep.Goarch)
	}
	if rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(rep.Benchmarks))
	}

	for _, b := range rep.Benchmarks {
		if b.Pkg != "cubefit" {
			t.Errorf("%s: pkg = %q, want cubefit", b.Name, b.Pkg)
		}
	}

	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkPlaceCubeFit" || b.Procs != 8 || b.Iterations != 10000 {
		t.Errorf("first = %+v", b)
	}
	if b.Metrics["ns/op"] != 13038 || b.Metrics["B/op"] != 974 || b.Metrics["allocs/op"] != 11 {
		t.Errorf("first metrics = %v", b.Metrics)
	}

	// Sub-benchmark keeps its slash path and custom ReportMetric units.
	sub := rep.Benchmarks[2]
	if sub.Name != "BenchmarkAblationClasses/k=10" {
		t.Errorf("sub name = %q", sub.Name)
	}
	if sub.Metrics["servers"] != 119 {
		t.Errorf("servers metric = %v", sub.Metrics["servers"])
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := "BenchmarkFoo logging something\nBenchmarkBar-4 bad iters ns/op\nPASS\n"
	rep, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("got %d benchmarks from noise, want 0", len(rep.Benchmarks))
	}
}

func TestParseEmptyInputYieldsEmptyArray(t *testing.T) {
	rep, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"benchmarks":[]`) {
		t.Errorf("empty report should marshal benchmarks as [], got %s", data)
	}
}

func TestRunRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Benchmarks) != 3 {
		t.Errorf("round-trip lost benchmarks: %d", len(rep.Benchmarks))
	}
}
