package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cubefit/internal/obs"
)

// writeSpanLog builds a synthetic span log: 6 spans across 2 group
// commits (sizes 4 and 2) with exactly known stage durations, plus one
// rejected span that never reached a commit.
func writeSpanLog(t testing.TB) string {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewSpanJSONL(&buf)
	mk := func(tenant int, base int64, commit uint64, group int) obs.Span {
		return obs.Span{
			Tenant: tenant, Status: 201, Commit: commit, Group: group,
			EnqueueNs:     base,
			DequeueNs:     base + 1000, // queue 1µs
			PlaceStartNs:  base + 1200,
			PlaceEndNs:    base + 2000, // place 1µs (engine 800ns)
			CommitStartNs: base + 2500, // wal 500ns
			CommitEndNs:   base + 4500, // fsync 2µs
			AckNs:         base + 5000, // ack 500ns
		}
	}
	for i := 0; i < 4; i++ {
		sink.RecordSpan(mk(i, int64(10000*i), 1, 4))
	}
	for i := 4; i < 6; i++ {
		sink.RecordSpan(mk(i, int64(10000*i), 2, 2))
	}
	// A 409: dequeued and acked without placement or commit.
	sink.RecordSpan(obs.Span{Tenant: 99, Status: 409, EnqueueNs: 90000, DequeueNs: 91000, AckNs: 91500})
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLatencyReportJSON(t *testing.T) {
	path := writeSpanLog(t)
	var out bytes.Buffer
	if err := run([]string{"latency", "-spans", path, "-json"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	var rep latencyReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 7 {
		t.Fatalf("spans %d, want 7", rep.Spans)
	}
	if rep.MaxResidualNs != 0 {
		t.Fatalf("telescoping residual %d, want 0", rep.MaxResidualNs)
	}
	if rep.Statuses[201] != 6 || rep.Statuses[409] != 1 {
		t.Fatalf("statuses %v", rep.Statuses)
	}
	if rep.Commits != 2 {
		t.Fatalf("commits %d, want 2", rep.Commits)
	}
	// The committed spans share exact stage durations; the P50 over 7
	// spans (6 committed + 1 cheap reject) still lands on the common
	// values.
	for stage, wantP50 := range map[string]float64{
		"queue": 1000, "place": 1000, "wal": 500, "fsync": 2000, "ack": 500, "total": 5000,
	} {
		if got := rep.Stages[stage].P50Ns; got != wantP50 {
			t.Errorf("stage %s P50 %v, want %v", stage, got, wantP50)
		}
	}
	// Amortization: the size-4 commit costs 2µs/4 = 500ns per admission,
	// the size-2 commit 1µs.
	if len(rep.Amortization) != 2 {
		t.Fatalf("amortization buckets %+v", rep.Amortization)
	}
	b4 := rep.Amortization[1]
	if b4.GroupMin != 4 || b4.GroupMax != 7 || b4.Commits != 1 || b4.Admissions != 4 || b4.FsyncPerAdmissionNs != 500 {
		t.Fatalf("size-4 bucket %+v", b4)
	}
	b2 := rep.Amortization[0]
	if b2.GroupMin != 2 || b2.GroupMax != 3 || b2.FsyncPerAdmissionNs != 1000 {
		t.Fatalf("size-2 bucket %+v", b2)
	}
}

func TestLatencyReportTable(t *testing.T) {
	path := writeSpanLog(t)
	var out bytes.Buffer
	if err := run([]string{"latency", "-spans", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"7 spans (6× 201, 1× 409)",
		"stage latency",
		"fsync",
		"reconciliation: stage sums match end-to-end totals exactly",
		"fsync amortization across 2 group commits",
		"Fsync/admission",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestLatencyErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"latency"}, nil, &out); err == nil {
		t.Fatal("missing -spans should fail")
	}
	if err := run([]string{"latency", "-spans", "/nonexistent/spans.jsonl"}, nil, &out); err == nil {
		t.Fatal("unreadable span log should fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"latency", "-spans", empty}, nil, &out); err == nil {
		t.Fatal("empty span log should fail")
	}
}

// TestLatencyReportHugeGroup: a span whose commit group is 2^62 or more
// lands in a bucket like any other. The bucket search once doubled its
// bound until it overflowed to 0 and spun forever, so the report runs in
// a goroutine and a regression fails within 2 s instead of hanging.
func TestLatencyReportHugeGroup(t *testing.T) {
	for _, group := range []string{"4611686018427387904", "9223372036854775807"} {
		spans, err := obs.ReadSpanJSONL(strings.NewReader(`{"tenant":1,"status":201,"commit":1,"group":` + group + "}\n"))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan latencyReport, 1)
		go func() { done <- buildLatencyReport(spans) }()
		select {
		case rep := <-done:
			if len(rep.Amortization) != 1 || rep.Amortization[0].GroupMin != 1<<62 || rep.Amortization[0].GroupMax != math.MaxInt {
				t.Fatalf("group %s: buckets %+v, want one [2^62, MaxInt]", group, rep.Amortization)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("latency report on a span with group %s did not return within 2s", group)
		}
	}
}

// TestGroupBucketMatchesDoubling: every group below 2^62, the whole range
// the live writer can produce, lands in the bucket the doubling search
// chose.
func TestGroupBucketMatchesDoubling(t *testing.T) {
	doubling := func(group int) int {
		lo := 1
		for lo*2 <= group {
			lo *= 2
		}
		return lo
	}
	groups := []int{-1, 0}
	for g := 1; g <= 5000; g++ {
		groups = append(groups, g)
	}
	for p := 2; p < 62; p++ {
		groups = append(groups, 1<<p-1, 1<<p, 1<<p+1)
	}
	for _, g := range groups {
		if got, want := groupBucket(g), doubling(g); got != want {
			t.Fatalf("groupBucket(%d) = %d, want %d", g, got, want)
		}
	}
}
