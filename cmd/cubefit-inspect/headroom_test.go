package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestHeadroomSummary(t *testing.T) {
	walPath, _ := tracedArtifacts(t)
	var out bytes.Buffer
	if err := run([]string{"headroom", "-wal", walPath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"operations replayed (γ=2)",
		"min slack",
		"red line 0.050",
		"trough:",
		"tightest",
		"Worst failure set",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestHeadroomCSV(t *testing.T) {
	walPath, _ := tracedArtifacts(t)
	var out bytes.Buffer
	if err := run([]string{"headroom", "-wal", walPath, "-csv"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "op,kind,tenant,tenants,servers,min_slack,min_server,below_redline,overloaded" {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	// One sample per operation: the traced run admits 120 tenants.
	if len(lines) != 121 {
		t.Fatalf("expected 121 CSV lines, got %d", len(lines))
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != 8 {
			t.Fatalf("CSV row with %d commas: %q", n, line)
		}
	}
}

func TestHeadroomErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"headroom"}, nil, &out); err == nil {
		t.Fatal("missing -wal should fail")
	}
	if err := run([]string{"headroom", "-wal", "/nonexistent/run.wal"}, nil, &out); err == nil {
		t.Fatal("unreadable log should fail")
	}
}

// TestHeadroomTornTail: a log cut mid-record replays its committed
// prefix; the summary says the tail was dropped, and the CSV, which stays
// machine-readable, holds one row per committed operation.
func TestHeadroomTornTail(t *testing.T) {
	walPath, _ := tracedArtifacts(t)
	torn := tornCopy(t, walPath)
	var out bytes.Buffer
	if err := run([]string{"headroom", "-wal", torn}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ends in a torn record", "119 operations replayed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run([]string{"headroom", "-wal", torn, "-csv"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 120 || lines[0] != "op,kind,tenant,tenants,servers,min_slack,min_server,below_redline,overloaded" {
		t.Fatalf("torn CSV: %d lines, header %q", len(lines), lines[0])
	}
}
