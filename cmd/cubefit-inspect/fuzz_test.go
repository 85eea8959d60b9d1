package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"cubefit/internal/obs"
	"cubefit/internal/telemetry"
)

// FuzzReadSpanJSONL feeds arbitrary bytes to the span log reader and,
// when they decode, through the latency report and its table: the report
// must return, not hang or panic, count every span once, and bucket every
// commit in a well-formed group range.
func FuzzReadSpanJSONL(f *testing.F) {
	seed, err := os.ReadFile(writeSpanLog(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"tenant":1,"status":201,"commit":1,"group":4611686018427387904}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := obs.ReadSpanJSONL(bytes.NewReader(data))
		if err != nil || len(spans) == 0 {
			return
		}
		rep := buildLatencyReport(spans)
		if rep.Spans != len(spans) {
			t.Fatalf("report counts %d spans of %d", rep.Spans, len(spans))
		}
		for _, b := range rep.Amortization {
			if b.GroupMin < 1 || b.GroupMax < b.GroupMin {
				t.Fatalf("malformed bucket %+v", b)
			}
		}
		if err := renderLatencyReport(io.Discard, rep); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzHealthReplay feeds arbitrary bytes to the health log reader and,
// when they decode, through telemetry.Replay: the replay must return,
// not hang, panic or allocate beyond what the log's size warrants, and
// replay no more ticks than the log has records.
func FuzzHealthReplay(f *testing.F) {
	seed, err := os.ReadFile(writeHealthLog(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := obs.ReadHealthJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		res, err := telemetry.Replay(recs)
		if err != nil {
			return
		}
		if res.Ticks > len(recs) {
			t.Fatalf("replayed %d ticks from %d records", res.Ticks, len(recs))
		}
		if err := renderHealthReplay(io.Discard, res); err != nil {
			t.Fatal(err)
		}
	})
}
