package telemetry

import (
	"testing"
	"time"

	"cubefit/internal/packing"
)

// testConfig returns short-window rule settings the table tests drive
// with 1-second ticks.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.RecoverTicks = 3
	cfg.Burn = BurnConfig{
		Objective:    100 * time.Millisecond,
		Budget:       0.01,
		FastWindow:   10 * time.Second,
		SlowWindow:   30 * time.Second,
		DegradedBurn: 3,
		CriticalBurn: 14.4,
		Targets:      []string{"h"},
	}
	cfg.Headroom = HeadroomConfig{
		Series: "slack", Floor: 0.05,
		TrendWindow: 10 * time.Second, ProjectionHorizon: 60 * time.Second,
	}
	cfg.Queue = QueueConfig{
		DepthSeries: "depth", Capacity: 100,
		DegradedFraction: 0.5, CriticalFraction: 0.9,
		OldestWaitSeries:    "wait",
		DegradedWaitSeconds: 1, CriticalWaitSeconds: 5,
	}
	cfg.WAL = WALConfig{Series: "wal"}
	cfg.Stall = StallConfig{DepthSeries: "depth", ProgressSeries: "prog", Window: 5 * time.Second}
	return cfg
}

func sec(s int) int64 { return int64(s) * int64(time.Second) }

// transitionsOf collects (tick-second, to-state) pairs from a scripted
// run: script(tick) returns the values for tick t (in seconds).
func transitionsOf(t *testing.T, e *engine, ticks int, script func(int) map[string]float64) []Transition {
	t.Helper()
	var out []Transition
	for i := 1; i <= ticks; i++ {
		_, tr := e.ingest(sec(i), script(i))
		if tr != nil {
			out = append(out, *tr)
		}
	}
	return out
}

func wantTransitions(t *testing.T, got []Transition, want []Transition) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].TNs != want[i].TNs || got[i].From != want[i].From || got[i].To != want[i].To {
			t.Fatalf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBurnRuleMultiWindow(t *testing.T) {
	e := newEngine(testConfig())
	// 100 requests per second; good through t=40, all-bad from t=41,
	// good again from t=46. Fast window 10s, slow window 30s.
	script := func(i int) map[string]float64 {
		count := float64(100 * i)
		good := count
		switch {
		case i > 45:
			good = float64(100*40 + 100*(i-45)) // 5 bad ticks excluded
		case i > 40:
			good = float64(100 * 40)
		}
		return map[string]float64{"h:count": count, "h:good": good}
	}
	got := transitionsOf(t, e, 60, script)
	wantTransitions(t, got, []Transition{
		// Slow-window burn crosses 3× one tick into the incident
		// (fast is already at 10×): degraded.
		{TNs: sec(41), From: Healthy, To: Degraded},
		// Five all-bad ticks push the slow window past 14.4×: critical.
		{TNs: sec(45), From: Degraded, To: Critical},
		// Recovery: the binding min() of the two windows drops below
		// critical at t=54, and after 3 cleaner ticks the state steps
		// straight to the then-observed severity (healthy by t=56).
		{TNs: sec(56), From: Critical, To: Healthy},
	})
	if len(got[0].Rules) != 1 || got[0].Rules[0] != "slo-burn:h" {
		t.Fatalf("degraded rules = %v", got[0].Rules)
	}
}

func TestBurnRuleQuietWithoutTraffic(t *testing.T) {
	e := newEngine(testConfig())
	// A flat count (no requests) must not divide by zero or fire.
	got := transitionsOf(t, e, 20, func(int) map[string]float64 {
		return map[string]float64{"h:count": 500, "h:good": 100}
	})
	wantTransitions(t, got, nil)
}

func TestWALRuleAndHysteresis(t *testing.T) {
	e := newEngine(testConfig())
	script := func(i int) map[string]float64 {
		wal := 0.0
		// Sticky error from t=3..5; a second dirty tick at t=8 resets
		// the recovery countdown.
		if (i >= 3 && i <= 5) || i == 8 {
			wal = 1
		}
		return map[string]float64{"wal": wal}
	}
	got := transitionsOf(t, e, 12, script)
	wantTransitions(t, got, []Transition{
		// Sticky WAL error is immediately critical — no trend needed.
		{TNs: sec(3), From: Healthy, To: Critical},
		// Clean at t=6,7; dirty t=8 resets; clean t=9,10,11 recovers.
		{TNs: sec(11), From: Critical, To: Healthy},
	})
	if len(got[0].Rules) != 1 || got[0].Rules[0] != "wal-sticky-error" {
		t.Fatalf("critical rules = %v", got[0].Rules)
	}
}

// TestHeadroomRedlineFloor: slack below the red-line floor, where CubeFit
// packs mature bins by design, is degraded, not critical.
func TestHeadroomRedlineFloor(t *testing.T) {
	e := newEngine(testConfig())
	script := func(i int) map[string]float64 {
		slack := 0.4
		if i >= 4 {
			slack = 0.04 // below the 0.05 floor
		}
		if i >= 5 {
			slack = 0.5 // repaired
		}
		return map[string]float64{"slack": slack}
	}
	got := transitionsOf(t, e, 10, script)
	wantTransitions(t, got, []Transition{
		{TNs: sec(4), From: Healthy, To: Degraded},
		{TNs: sec(7), From: Degraded, To: Healthy},
	})
	if got[0].Rules[0] != "headroom-redline" {
		t.Fatalf("rules = %v", got[0].Rules)
	}
}

// TestHeadroomNegativeSlackCritical: slack below 0 beyond the capacity
// tolerance violates the robustness invariant and is critical at once;
// slack within the tolerance is only below the floor.
func TestHeadroomNegativeSlackCritical(t *testing.T) {
	e := newEngine(testConfig())
	got := transitionsOf(t, e, 3, func(i int) map[string]float64 {
		slack := 0.4
		switch i {
		case 2:
			slack = -packing.CapacityEps / 2 // rounding, not a violation
		case 3:
			slack = -0.01
		}
		return map[string]float64{"slack": slack}
	})
	wantTransitions(t, got, []Transition{
		{TNs: sec(2), From: Healthy, To: Degraded},
		{TNs: sec(3), From: Degraded, To: Critical},
	})
	if len(got[1].Rules) != 1 || got[1].Rules[0] != "headroom-violation" {
		t.Fatalf("critical rules = %v", got[1].Rules)
	}
}

func TestHeadroomErosionProjection(t *testing.T) {
	e := newEngine(testConfig())
	// Slack erodes 0.01/s from 0.5: the red line (0.05) is ~40s out,
	// inside the 60s horizon. The slope needs ≥5s of history (half the
	// 10s trend window), so the first possible firing tick is t=6.
	got := transitionsOf(t, e, 8, func(i int) map[string]float64 {
		return map[string]float64{"slack": 0.5 - 0.01*float64(i-1)}
	})
	wantTransitions(t, got, []Transition{{TNs: sec(6), From: Healthy, To: Degraded}})
	if got[0].Rules[0] != "headroom-erosion" {
		t.Fatalf("rules = %v", got[0].Rules)
	}

	// A shallow trend (red line ~450s out) stays healthy.
	e2 := newEngine(testConfig())
	got = transitionsOf(t, e2, 8, func(i int) map[string]float64 {
		return map[string]float64{"slack": 0.5 - 0.001*float64(i-1)}
	})
	wantTransitions(t, got, nil)
}

func TestQueueSaturationAndWait(t *testing.T) {
	e := newEngine(testConfig())
	script := func(i int) map[string]float64 {
		depth, wait := 10.0, 0.1
		switch {
		case i == 3:
			depth = 60 // 60% of capacity 100 → degraded
		case i == 4:
			depth = 95 // 95% → critical
		}
		return map[string]float64{"depth": depth, "wait": wait, "prog": float64(i)}
	}
	got := transitionsOf(t, e, 8, script)
	wantTransitions(t, got, []Transition{
		{TNs: sec(3), From: Healthy, To: Degraded},
		{TNs: sec(4), From: Degraded, To: Critical},
		{TNs: sec(7), From: Critical, To: Healthy},
	})
	if got[0].Rules[0] != "queue-saturation" {
		t.Fatalf("rules = %v", got[0].Rules)
	}

	e2 := newEngine(testConfig())
	got = transitionsOf(t, e2, 6, func(i int) map[string]float64 {
		wait := 0.2
		if i == 3 {
			wait = 2 // past the 1s degraded threshold
		}
		return map[string]float64{"depth": 1, "wait": wait, "prog": float64(i)}
	})
	wantTransitions(t, got, []Transition{
		{TNs: sec(3), From: Healthy, To: Degraded},
		{TNs: sec(6), From: Degraded, To: Healthy},
	})
	if got[0].Rules[0] != "queue-wait" {
		t.Fatalf("rules = %v", got[0].Rules)
	}
}

func TestPlacerStallWatchdog(t *testing.T) {
	e := newEngine(testConfig())
	// The placer makes progress through t=3, then freezes while the
	// queue holds 3 jobs from t=4 on; progress resumes at t=15. The 5s
	// stall window ⇒ degraded once depth>0 spans 5s with no progress
	// (t=9), critical at 10s (t=14, the first tick where the full 10s
	// lookback has a non-empty queue throughout).
	script := func(i int) map[string]float64 {
		prog, depth := float64(10*i), 0.0
		if i >= 4 {
			prog = 30
			depth = 3
		}
		if i >= 15 {
			prog = 30 + float64(10*(i-14))
			depth = 0
		}
		return map[string]float64{"depth": depth, "wait": 0, "prog": prog}
	}
	got := transitionsOf(t, e, 18, script)
	wantTransitions(t, got, []Transition{
		{TNs: sec(9), From: Healthy, To: Degraded},
		{TNs: sec(14), From: Degraded, To: Critical},
		{TNs: sec(17), From: Critical, To: Healthy},
	})
	if got[1].Rules[0] != "placer-stall" {
		t.Fatalf("critical rules = %v", got[1].Rules)
	}
}

func TestFindingsReportedInStatus(t *testing.T) {
	e := newEngine(testConfig())
	e.ingest(sec(1), map[string]float64{"wal": 1, "slack": -0.01})
	if e.state != Critical {
		t.Fatalf("state = %v, want critical", e.state)
	}
	if len(e.findings) != 2 {
		t.Fatalf("findings = %+v, want headroom + wal", e.findings)
	}
	for _, f := range e.findings {
		if f.Severity != Critical || f.Evidence == "" {
			t.Fatalf("finding %+v lacks severity/evidence", f)
		}
	}
}

func TestTransitionHistoryBounded(t *testing.T) {
	e := newEngine(testConfig())
	for i := 1; i <= 4*transitionWindow; i++ {
		// Alternate critical/healthy every tick via the WAL rule with
		// RecoverTicks bypassed by escalation being immediate: odd ticks
		// escalate, and we force recovery fast by re-ingesting clean
		// ticks RecoverTicks times.
		e.ingest(sec(10*i), map[string]float64{"wal": 1})
		for j := 0; j < e.cfg.RecoverTicks; j++ {
			e.ingest(sec(10*i)+int64(j+1), map[string]float64{"wal": 0})
		}
	}
	if len(e.transitions) != transitionWindow {
		t.Fatalf("retained transitions = %d, want %d", len(e.transitions), transitionWindow)
	}
	if e.transitionsTotal != uint64(8*transitionWindow) {
		t.Fatalf("total transitions = %d, want %d", e.transitionsTotal, 8*transitionWindow)
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	for _, s := range []State{Healthy, Degraded, Critical} {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("round trip %v -> %s -> %v", s, b, back)
		}
	}
}
