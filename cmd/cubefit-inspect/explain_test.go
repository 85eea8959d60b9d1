package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// tracedArtifacts produces a matching (operation log, placement.json)
// pair from one CubeFit run at cubefit-server's configuration.
func tracedArtifacts(t *testing.T) (walPath, snapPath string) {
	t.Helper()
	cf, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	walPath = filepath.Join(dir, "run.wal")
	f, err := os.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal := obs.NewWAL(f)
	cf.SetRecorder(wal)

	dist, err := workload.NewUniform(1, 15)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewClientSource(workload.DefaultLoadModel(), dist, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := packing.PlaceAll(cf, workload.Take(src, 120)); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	snapPath = filepath.Join(dir, "placement.json")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if err := trace.Write(sf, cf.Placement()); err != nil {
		t.Fatal(err)
	}
	return walPath, snapPath
}

func TestExplainSummary(t *testing.T) {
	walPath, snapPath := tracedArtifacts(t)
	var out bytes.Buffer
	if err := run([]string{"explain", "-wal", walPath, snapPath}, nil, &out); err != nil {
		t.Fatalf("explain: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"120 tenant admissions reconstructed",
		"admission paths:",
		"snapshot cross-check: 120 tenants checked, 0 mismatched",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestExplainSingleTenant(t *testing.T) {
	walPath, snapPath := tracedArtifacts(t)
	var out bytes.Buffer
	if err := run([]string{"explain", "-wal", walPath, "-tenant", "3", snapPath},
		nil, &out); err != nil {
		t.Fatalf("explain -tenant: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "tenant 3 (cubefit): path=") {
		t.Errorf("missing tenant header:\n%s", got)
	}
	if !strings.Contains(got, "replica 0 -> server ") {
		t.Errorf("missing replica lines:\n%s", got)
	}
	if !strings.Contains(got, "failover attribution (snapshot):") {
		t.Errorf("missing attribution:\n%s", got)
	}
}

func TestExplainErrors(t *testing.T) {
	walPath, _ := tracedArtifacts(t)
	if err := run([]string{"explain"}, nil, new(bytes.Buffer)); err == nil {
		t.Error("explain without -wal should fail")
	}
	if err := run([]string{"explain", "-wal", "/nonexistent.wal"}, nil, new(bytes.Buffer)); err == nil {
		t.Error("explain with a missing log should fail")
	}
	if err := run([]string{"explain", "-wal", walPath, "-tenant", "99999"},
		nil, new(bytes.Buffer)); err == nil {
		t.Error("explain of an unknown tenant should fail")
	}
}

// TestExplainKMismatch: a log replayed at another K than the run that
// wrote it places tenants elsewhere, and the replay says so instead of
// reconstructing wrong paths.
func TestExplainKMismatch(t *testing.T) {
	walPath, _ := tracedArtifacts(t)
	err := run([]string{"explain", "-wal", walPath, "-k", "6"}, nil, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "-k must match") {
		t.Fatalf("explain at the wrong K: %v", err)
	}
}

// tornCopy writes the log at path cut in the middle of its last record
// and returns the copy's path.
func tornCopy(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(torn, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	return torn
}

// TestExplainTornTail: a log cut mid-record replays its committed prefix,
// as boot does, and the output says the tail was dropped.
func TestExplainTornTail(t *testing.T) {
	walPath, _ := tracedArtifacts(t)
	var out bytes.Buffer
	if err := run([]string{"explain", "-wal", tornCopy(t, walPath)}, nil, &out); err != nil {
		t.Fatalf("explain: %v\n%s", err, out.String())
	}
	for _, want := range []string{"ends in a torn record", "119 tenant admissions reconstructed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
