package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"cubefit/internal/obs"
)

// endState is what a run leaves behind that tracing must not change.
type endState struct {
	placement  string // GET /v1/placement
	admissions string // the cubefit_admissions_total lines of GET /metrics
	ringTotal  string // the total recorded by the flight recorder ring
	walEvents  int    // events in the log after the final commit
}

// runToEnd sets up p, runs its bounded measured phase and captures the
// end state, with or without the tracing wrappers.
func runToEnd(t *testing.T, p params, tr *tracer) endState {
	t.Helper()
	f, err := setUp(p, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.release(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := measure(p, f, 7, time.Hour, tr); err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		var buf bytes.Buffer
		status, _, err := f.cl.call(http.MethodGet, path, nil, &buf, reqRead, 0, 0)
		if err != nil || status != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, status, err)
		}
		return buf.String()
	}
	var st endState
	st.placement = get("/v1/placement")
	for _, line := range strings.Split(get("/metrics"), "\n") {
		if strings.HasPrefix(line, "cubefit_admissions_total{") {
			st.admissions += line + "\n"
		}
	}
	events := get("/debug/events?n=0")
	st.ringTotal = events[:strings.IndexByte(events, ',')]
	if err := f.svc.close(); err != nil {
		t.Fatal(err)
	}
	f.svc = nil
	log, err := os.Open(f.wal.path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	evs, torn, err := obs.ReadWAL(log)
	if err != nil || torn {
		t.Fatalf("reading the log: torn=%v, %v", torn, err)
	}
	st.walEvents = len(evs)
	return st
}

// TestTracedRunMeasuresTheSameProgram runs small batch-grow and
// single-churn phases over one connection with and without the tracing
// wrappers: both must end in the same placement, admission counts, flight
// recorder total and log, and the controller must have attached the log,
// the flight recorder and the admission hook through the wrappers.
func TestTracedRunMeasuresTheSameProgram(t *testing.T) {
	for _, name := range []string{"batch-grow", "single-churn"} {
		t.Run(name, func(t *testing.T) {
			p, err := lookupWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			p.conns, p.preload, p.departFrac, p.requests = 1, 1500, 0.1, 40
			plain := runToEnd(t, p, nil)
			tr := newTracer()
			traced := runToEnd(t, p, tr)
			if plain.placement != traced.placement {
				t.Error("traced run ended in a different placement snapshot")
			}
			if plain.walEvents != traced.walEvents || plain.walEvents == 0 {
				t.Errorf("log events: untraced %d, traced %d", plain.walEvents, traced.walEvents)
			}
			if plain.admissions != traced.admissions || plain.admissions == "" {
				t.Errorf("admission hook counts differ:\nuntraced:\n%straced:\n%s", plain.admissions, traced.admissions)
			}
			if plain.ringTotal != traced.ringTotal {
				t.Errorf("flight recorder totals differ: %s vs %s", plain.ringTotal, traced.ringTotal)
			}
			// Every event the engine emitted crossed the wrapped recorder
			// chain and reached the log through the wrapped commit log.
			var records, walRecs int64
			for _, a := range tr.aggs {
				records += a.records
				walRecs += a.walRecs
			}
			if want := fmt.Sprint(records); !strings.Contains(traced.ringTotal, want) || walRecs != records {
				t.Errorf("recorder chain saw %d events, log wrapper %d, ring %s", records, walRecs, traced.ringTotal)
			}
			if len(tr.aggs[inMeasured].syncUs) == 0 || tr.aggs[inMeasured].engine[0].calls == 0 {
				t.Error("the measured phase made no traced engine call or commit")
			}
		})
	}
}
