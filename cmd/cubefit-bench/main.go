// Command cubefit-bench converts the text output of `go test -bench` into
// a machine-readable JSON report, so CI can archive benchmark runs and
// diff them across commits without scraping free-form text. `make perf`
// runs it on the microbenchmark ledger, perf.out, to write perf.json.
//
// Usage:
//
//	cubefit-bench -out perf.json perf.out
//	go test -bench=. -benchmem -run '^$' . | cubefit-bench
//	cubefit-bench -compare old.json new.json [-threshold 0.20]
//
// It understands the standard benchmark line format — name, iteration
// count, then value/unit pairs — including -benchmem columns (B/op,
// allocs/op) and custom b.ReportMetric units such as the "servers"
// metric reported by the ablation benchmarks. Sub-benchmark names keep
// their slashes; the trailing -N GOMAXPROCS suffix is split out.
//
// The -compare mode diffs two JSON reports previously produced by this
// tool: the median over each benchmark's repetitions (-count), one row
// per benchmark and unit of ns/op, B/op, and allocs/op. Exit codes: 0
// when no median regressed beyond the threshold (default 0.20 = +20%), 1
// on usage or I/O errors, 2 when at least one median regressed — so CI
// can gate on slowdowns while treating noise within the threshold as a
// pass.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cubefit-bench:", err)
		if errors.Is(err, ErrRegression) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// Report is the JSON document: the run's environment header plus one
// entry per benchmark result line.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name without the -N GOMAXPROCS suffix,
	// e.g. "BenchmarkPlaceCubeFit" or "BenchmarkAblationClasses/k=10".
	Name string `json:"name"`
	// Pkg is the package the line ran in: the last pkg: header before it.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran with (0 if absent).
	Procs int `json:"procs,omitempty"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value: ns/op, B/op, allocs/op, and any custom
	// b.ReportMetric units (e.g. servers).
	Metrics map[string]float64 `json:"metrics"`
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) >= 1 && args[0] == "-compare" {
		return runCompare(args[1:], stdout)
	}
	var outPath string
	rest := args
	if len(args) >= 2 && args[0] == "-out" {
		outPath, rest = args[1], args[2:]
	}
	in := stdin
	if len(rest) > 1 {
		return fmt.Errorf("usage: cubefit-bench [-out report.json] [bench.out]")
	}
	if len(rest) == 1 {
		f, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		//cubefit:vet-allow failclosed -- bench output opened read-only; closing it cannot lose data
		defer f.Close()
		in = f
	}
	rep, err := Parse(in)
	if err != nil {
		return err
	}
	out := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		// The report is the command's durable artifact; the close error
		// joins the encode result instead of vanishing.
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		werr := enc.Encode(rep)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		return cerr
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Parse reads `go test -bench` text output into a Report. Lines that are
// neither a recognized header nor a benchmark result (PASS, ok, test log
// output) are ignored, so the raw `go test` stream can be piped directly.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	var pkg string
	rep.Benchmarks = []Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   10000   13038 ns/op   974 B/op   11 allocs/op
//
// Returns ok=false for lines that start with "Benchmark" but are not
// result lines (e.g. a benchmark's own log output).
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	// Minimum: name, iterations, one value/unit pair; pairs come in twos.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Metrics: make(map[string]float64)}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
