package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cubefit/internal/clock"
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
	"cubefit/internal/telemetry"
)

// writeHealthLog drives a real monitor through a WAL incident against a
// fake clock and returns the path of the JSONL log it streamed: two
// healthy ticks, a sticky-WAL critical tick, and a hysteresis recovery.
func writeHealthLog(t testing.TB) string {
	t.Helper()
	reg := metrics.NewRegistry()
	wal := reg.NewGauge(telemetry.SeriesWALStickyError, "sticky wal error")
	var buf bytes.Buffer
	sink := obs.NewHealthJSONL(&buf)
	cfg := telemetry.Config{
		Interval:     time.Second,
		RecoverTicks: 2,
		WAL:          telemetry.WALConfig{Series: telemetry.SeriesWALStickyError},
	}
	fake := clock.NewFake(time.Unix(0, 0))
	m := telemetry.New(reg, cfg, fake, telemetry.WithSink(sink))
	tick := func() { fake.Advance(time.Second); m.Tick() }
	tick()
	tick()
	wal.Set(1)
	tick() // critical
	wal.Set(0)
	tick()
	tick() // healthy again after RecoverTicks clean ticks
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "health.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHealthReplayTable(t *testing.T) {
	path := writeHealthLog(t)
	var out bytes.Buffer
	if err := run([]string{"health", "-log", path}, nil, &out); err != nil {
		t.Fatalf("health replay: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"5 ticks",
		"final state healthy",
		"healthy → critical",
		"critical → healthy",
		"wal-sticky-error",
		"replay parity: OK",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestHealthReplayJSON(t *testing.T) {
	path := writeHealthLog(t)
	var out bytes.Buffer
	if err := run([]string{"health", "-log", path, "-json"}, nil, &out); err != nil {
		t.Fatalf("health replay: %v\n%s", err, out.String())
	}
	var res telemetry.ReplayResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 5 || res.Final != telemetry.Healthy || len(res.Transitions) != 2 {
		t.Fatalf("replay result: %+v", res)
	}
	if !res.ParityOK() {
		t.Fatal("parity failed on a clean log")
	}
}

// TestHealthReplayParityMismatch: a log whose recorded transitions do not
// match the reconstruction (here: a spurious appended transition record)
// must fail loudly, not report a clean replay.
func TestHealthReplayParityMismatch(t *testing.T) {
	path := writeHealthLog(t)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"transition","tNs":999,"from":"healthy","to":"critical","rules":["bogus"]}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"health", "-log", path}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("tampered log replayed cleanly: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "MISMATCH") {
		t.Fatalf("output does not flag the mismatch:\n%s", out.String())
	}
}

func TestHealthErrors(t *testing.T) {
	if err := run([]string{"health"}, nil, new(bytes.Buffer)); err == nil {
		t.Fatal("missing -log accepted")
	}
	if err := run([]string{"health", "-log", filepath.Join(t.TempDir(), "absent.jsonl")}, nil, new(bytes.Buffer)); err == nil {
		t.Fatal("absent log accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"health", "-log", empty}, nil, new(bytes.Buffer)); err == nil {
		t.Fatal("log without a config record accepted")
	}
}
