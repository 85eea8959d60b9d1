package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"

	"cubefit/internal/obs"
	"cubefit/internal/report"
	"cubefit/internal/stats"
)

// runLatency replays a span log (the JSONL written by the controller's
// span sink; see `cubefit-server -spans`) and decomposes end-to-end
// admission latency into pipeline stages: per-stage P50/P99/mean/max, the
// share of total time each stage accounts for, the telescoping
// reconciliation check, and fsync amortization versus group-commit size.
func runLatency(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cubefit-inspect latency", flag.ContinueOnError)
	var (
		spansPath = fs.String("spans", "", "admission span log (JSONL, required)")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spansPath == "" {
		return fmt.Errorf("latency: -spans is required")
	}
	f, err := os.Open(*spansPath)
	if err != nil {
		return err
	}
	//cubefit:vet-allow failclosed -- span log opened read-only; closing it cannot lose data
	defer f.Close()
	spans, err := obs.ReadSpanJSONL(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", *spansPath, err)
	}
	if len(spans) == 0 {
		return fmt.Errorf("latency: %s holds no spans", *spansPath)
	}
	rep := buildLatencyReport(spans)
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return renderLatencyReport(out, rep)
}

// stageStats is one stage's latency distribution over the span log. The
// reported stage set is obs.StageExtractors, shared with /debug/pipeline
// and the telemetry sampler.
type stageStats struct {
	P50Ns  float64 `json:"p50Ns"`
	P99Ns  float64 `json:"p99Ns"`
	MeanNs float64 `json:"meanNs"`
	MaxNs  float64 `json:"maxNs"`
	SumNs  float64 `json:"sumNs"`
	// SharePct is this stage's share of the summed end-to-end time (only
	// the five canonical stages partition it; overlays overlap).
	SharePct float64 `json:"sharePct"`
}

// amortBucket aggregates the commits whose group size falls in
// [GroupMin, GroupMax]: batching efficiency is the per-admission fsync
// cost falling as the group grows.
type amortBucket struct {
	GroupMin            int     `json:"groupMin"`
	GroupMax            int     `json:"groupMax"`
	Commits             int     `json:"commits"`
	Admissions          int     `json:"admissions"`
	MeanFsyncNs         float64 `json:"meanFsyncNs"`
	FsyncPerAdmissionNs float64 `json:"fsyncPerAdmissionNs"`
}

// latencyReport is the machine-readable form of the latency breakdown.
type latencyReport struct {
	Spans    int                   `json:"spans"`
	Statuses map[int]int           `json:"statuses"`
	Stages   map[string]stageStats `json:"stages"`
	// MaxResidualNs is the largest |total − Σstages| across spans; the
	// telescoping contract makes it 0 for every normalized span.
	MaxResidualNs int64         `json:"maxResidualNs"`
	Commits       int           `json:"commits"`
	Amortization  []amortBucket `json:"fsyncAmortization"`
}

func buildLatencyReport(spans []obs.Span) latencyReport {
	rep := latencyReport{
		Spans:    len(spans),
		Statuses: make(map[int]int),
		Stages:   make(map[string]stageStats, len(obs.StageExtractors)),
	}
	var totalSum float64
	vals := make([]float64, len(spans))
	for _, st := range obs.StageExtractors {
		var s stageStats
		for i := range spans {
			v := float64(st.Ns(&spans[i]))
			vals[i] = v
			s.SumNs += v
			if v > s.MaxNs {
				s.MaxNs = v
			}
		}
		s.P50Ns, _ = stats.PercentileInPlace(vals, 50)
		s.P99Ns, _ = stats.P99InPlace(vals)
		s.MeanNs = s.SumNs / float64(len(spans))
		if st.Name == "total" {
			totalSum = s.SumNs
		}
		rep.Stages[st.Name] = s
	}
	if totalSum > 0 {
		for name, s := range rep.Stages {
			s.SharePct = 100 * s.SumNs / totalSum
			rep.Stages[name] = s
		}
	}
	// Reconciliation: the five canonical stages must telescope to the
	// total on every span.
	for i := range spans {
		s := &spans[i]
		sum := s.QueueNs() + s.PlaceNs() + s.WalNs() + s.FsyncNs() + s.AckLatencyNs()
		residual := s.TotalNs() - sum
		if residual < 0 {
			residual = -residual
		}
		if residual > rep.MaxResidualNs {
			rep.MaxResidualNs = residual
		}
		rep.Statuses[s.Status]++
	}
	rep.Commits, rep.Amortization = amortize(spans)
	return rep
}

// amortize deduplicates group commits by id and buckets them by group
// size (powers of two), reporting the per-admission fsync cost per bucket.
func amortize(spans []obs.Span) (commits int, buckets []amortBucket) {
	type commitInfo struct {
		group   int
		fsyncNs int64
	}
	seen := make(map[uint64]commitInfo)
	for i := range spans {
		s := &spans[i]
		if s.Commit == 0 {
			continue
		}
		seen[s.Commit] = commitInfo{group: s.Group, fsyncNs: s.FsyncNs()}
	}
	if len(seen) == 0 {
		return 0, nil
	}
	agg := make(map[int]*amortBucket)
	for _, ci := range seen {
		lo := groupBucket(ci.group)
		b := agg[lo]
		if b == nil {
			b = &amortBucket{GroupMin: lo, GroupMax: lo | (lo - 1)}
			agg[lo] = b
		}
		b.Commits++
		b.Admissions += ci.group
		b.MeanFsyncNs += float64(ci.fsyncNs)
	}
	keys := make([]int, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	buckets = make([]amortBucket, 0, len(keys))
	for _, k := range keys {
		b := agg[k]
		sumFsync := b.MeanFsyncNs
		b.MeanFsyncNs = sumFsync / float64(b.Commits)
		if b.Admissions > 0 {
			b.FsyncPerAdmissionNs = sumFsync / float64(b.Admissions)
		}
		buckets = append(buckets, *b)
	}
	return len(seen), buckets
}

// groupBucket returns the lower bound of a commit group's bucket: the
// buckets are [1,1], [2,3], [4,7], …, and a group below 1 counts in the
// first. It terminates for every int, the largest groups included.
func groupBucket(group int) int {
	if group <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(group)) - 1)
}

// formatNs renders a nanosecond quantity at a human scale.
func formatNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func renderLatencyReport(out io.Writer, rep latencyReport) error {
	fmt.Fprintf(out, "%d spans", rep.Spans)
	codes := make([]int, 0, len(rep.Statuses))
	for c := range rep.Statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	sep := " ("
	for _, c := range codes {
		fmt.Fprintf(out, "%s%d× %d", sep, rep.Statuses[c], c)
		sep = ", "
	}
	fmt.Fprintln(out, ")")

	fmt.Fprintln(out, "\nstage latency (canonical stages sum to total; engine ⊂ place, commit = wal+fsync):")
	tb := report.NewTable("Stage", "P50", "P99", "Mean", "Max", "Share")
	for _, st := range obs.StageExtractors {
		s := rep.Stages[st.Name]
		name := st.Name
		if !st.Canonical && st.Name != "total" {
			name = "  " + name
		}
		tb.AddRow(name,
			formatNs(s.P50Ns), formatNs(s.P99Ns), formatNs(s.MeanNs), formatNs(s.MaxNs),
			fmt.Sprintf("%.1f%%", s.SharePct))
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	if rep.MaxResidualNs == 0 {
		fmt.Fprintln(out, "reconciliation: stage sums match end-to-end totals exactly (max residual 0ns)")
	} else {
		fmt.Fprintf(out, "reconciliation: WARNING — max |total − Σstages| = %s\n",
			formatNs(float64(rep.MaxResidualNs)))
	}

	if rep.Commits > 0 {
		fmt.Fprintf(out, "\nfsync amortization across %d group commits:\n", rep.Commits)
		ab := report.NewTable("Group size", "Commits", "Admissions", "Mean fsync", "Fsync/admission")
		for _, b := range rep.Amortization {
			size := fmt.Sprintf("%d", b.GroupMin)
			if b.GroupMax > b.GroupMin {
				size = fmt.Sprintf("%d–%d", b.GroupMin, b.GroupMax)
			}
			ab.AddRow(size,
				fmt.Sprintf("%d", b.Commits),
				fmt.Sprintf("%d", b.Admissions),
				formatNs(b.MeanFsyncNs),
				formatNs(b.FsyncPerAdmissionNs))
		}
		if err := ab.Render(out); err != nil {
			return err
		}
	}
	return nil
}
