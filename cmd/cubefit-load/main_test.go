package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/recovery"
)

func TestRunBothWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	err := run([]string{"-ops", "300", "-batch", "16", "-workers", "2", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "batch speedup:") {
		t.Fatalf("missing speedup line:\n%s", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("report has %d benchmarks, want 2", len(rep.Benchmarks))
	}
	for i, name := range []string{"Load/single", "Load/batch"} {
		b := rep.Benchmarks[i]
		if b.Name != name || b.Iterations != 300 {
			t.Fatalf("benchmark %d = %+v", i, b)
		}
		for _, unit := range []string{
			"ns/op", "p50-ns", "p99-ns", "tenants/s",
			"queue-p50-ns", "queue-p99-ns", "place-p50-ns", "place-p99-ns",
			"commit-p50-ns", "commit-p99-ns",
		} {
			if _, ok := b.Metrics[unit]; !ok {
				t.Fatalf("%s missing metric %s", name, unit)
			}
		}
		if b.Metrics["ns/op"] <= 0 || b.Metrics["queue-p99-ns"] < b.Metrics["queue-p50-ns"] {
			t.Fatalf("%s metrics implausible: %v", name, b.Metrics)
		}
		for _, unit := range []string{"health-ticks", "health-transitions"} {
			if _, ok := b.Metrics[unit]; !ok {
				t.Fatalf("%s missing the %s column: %v", name, unit, b.Metrics)
			}
		}
		// The printed verdict agrees with the ticks column: a run that
		// ended before the first tick says so instead of "healthy".
		want := "health: no data (0 ticks)"
		if ticks := b.Metrics["health-ticks"]; ticks > 0 {
			want = fmt.Sprintf(" after %d ticks, %d transitions", int(ticks), int(b.Metrics["health-transitions"]))
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("%s: health line does not contain %q:\n%s", name, want, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "stages:") {
		t.Fatalf("missing stage breakdown line:\n%s", buf.String())
	}
}

// TestHealthVerdict: zero ticks is "no data", never a state; otherwise
// the state comes with the ticks and transitions behind it.
func TestHealthVerdict(t *testing.T) {
	for _, c := range []struct {
		h    healthSummary
		want string
	}{
		{healthSummary{State: "healthy"}, "no data (0 ticks)"},
		{healthSummary{State: "healthy", Ticks: 3}, "healthy after 3 ticks, 0 transitions"},
		{healthSummary{State: "critical", Ticks: 12, TransitionsTotal: 2}, "critical after 12 ticks, 2 transitions"},
	} {
		if got := c.h.verdict(); got != c.want {
			t.Errorf("verdict(%+v) = %q, want %q", c.h, got, c.want)
		}
	}
}

// TestRunHealthOff: -health=false keeps the sampling loop off and omits
// the health line and column (the overhead-measurement baseline).
func TestRunHealthOff(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	if err := run([]string{"-mode", "batch", "-ops", "200", "-batch", "16",
		"-health=false", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "health:") {
		t.Fatal("health-off run printed a health verdict")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, unit := range []string{"health-ticks", "health-transitions"} {
		if _, ok := rep.Benchmarks[0].Metrics[unit]; ok {
			t.Fatalf("health-off report carries the %s column", unit)
		}
	}
}

// TestRunTracingOff: -trace=false still measures, omits the stage
// columns, and prints no stage line.
func TestRunTracingOff(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	if err := run([]string{"-mode", "batch", "-ops", "200", "-batch", "16",
		"-trace=false", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "stages:") {
		t.Fatal("tracing-off run printed a stage breakdown")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Benchmarks[0].Metrics["queue-p50-ns"]; ok {
		t.Fatal("tracing-off report carries stage columns")
	}
	if rep.Benchmarks[0].Metrics["ns/op"] <= 0 {
		t.Fatal("tracing-off report lost the throughput metrics")
	}
}

// TestRunSpanExport: -spans captures a JSONL log whose spans cover every
// admission of the run and telescope.
func TestRunSpanExport(t *testing.T) {
	spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-mode", "batch", "-ops", "192", "-batch", "16",
		"-spans", spansPath}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpanJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 192 {
		t.Fatalf("exported %d spans, want 192", len(spans))
	}
	for _, s := range spans {
		sum := s.QueueNs() + s.PlaceNs() + s.WalNs() + s.FsyncNs() + s.AckLatencyNs()
		if sum != s.TotalNs() {
			t.Fatalf("span does not telescope: %+v", s)
		}
		if !s.Batch || s.Status != 201 {
			t.Fatalf("unexpected span shape: %+v", s)
		}
	}
}

func TestRunSingleMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "single", "-ops", "200", "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "speedup") {
		t.Fatal("single mode printed a speedup")
	}
}

func TestRunWALMode(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-mode", "batch", "-ops", "200", "-batch", "16", "-wal", walPath}, &buf); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("durable mode left the WAL empty")
	}
}

// TestRunWALTwiceRecovers: two runs of both modes on one log append four
// histories to it, and the log still boots into all of their acked
// admissions.
func TestRunWALTwiceRecovers(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	for i := 0; i < 2; i++ {
		if err := run([]string{"-ops", "150", "-batch", "16", "-workers", "2", "-health=false", "-wal", walPath}, new(bytes.Buffer)); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
	}
	cf, st, err := recovery.FromFile(walPath, core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n := cf.Placement().NumTenants(); n != 4*150 || st.Admitted != 4*150 || st.Rejected != 0 {
		t.Fatalf("recovered %d tenants (%+v), want the 600 admissions of four modes", n, st)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunGateFails(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-ops", "200", "-batch", "16", "-minspeedup", "1e9"}, &buf)
	if !errors.Is(err, ErrGate) {
		t.Fatalf("impossible gate passed: %v", err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-ops", "0"},
		{"-workers", "0"},
		{"-batch", "0"},
		{"-mode", "single", "-minspeedup", "2"},
		{"-url", "http://localhost:1", "-trace=false"},
		{"-url", "http://localhost:1", "-spans", "x.jsonl"},
		{"-url", "http://localhost:1", "-wal", "x.jsonl"},
		{"-spans", "x.jsonl", "-trace=false"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestEncodeRequest(t *testing.T) {
	body, path := encodeRequest(5, 6, false)
	if path != "/v1/tenants" || !json.Valid(body) {
		t.Fatalf("single: path %q body %s", path, body)
	}
	body, path = encodeRequest(0, 3, true)
	if path != "/v1/tenants:batch" || !json.Valid(body) {
		t.Fatalf("batch: path %q body %s", path, body)
	}
	var br struct {
		Tenants []struct {
			ID      int `json:"id"`
			Clients int `json:"clients"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Tenants) != 3 || br.Tenants[2].ID != 2 || br.Tenants[2].Clients != 3 {
		t.Fatalf("batch body decoded to %+v", br)
	}
}
