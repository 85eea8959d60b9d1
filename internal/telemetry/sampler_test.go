package telemetry

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"cubefit/internal/clock"
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
)

func TestMonitorScrapeDerivedSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.NewCounter("reqs_total", "requests")
	g := reg.NewFGauge("slack_gauge", "slack")
	hv := reg.NewHistogramVec("lat_seconds", "latency", []string{"route"}, 0.01, 0.1, 1)
	h := hv.With("place")

	cfg := testConfig()
	cfg.Burn.Targets = []string{`lat_seconds{route="place"}`}
	fake := clock.NewFake(time.Unix(0, 0))
	m := New(reg, cfg, fake)

	c.Add(10)
	g.Set(0.5)
	h.Observe(0.05)
	h.Observe(0.05)
	fake.Advance(time.Second)
	m.Tick()
	c.Add(30)
	h.Observe(0.5)
	h.Observe(0.05)
	fake.Advance(time.Second)
	m.Tick()

	get := func(series string) []Point {
		t.Helper()
		pts, ok := m.Timeline(series, 0)
		if !ok {
			t.Fatalf("series %s missing; have %v", series, m.SeriesKeys())
		}
		return pts
	}
	if pts := get("reqs_total"); len(pts) != 2 || pts[1].Value != 40 {
		t.Fatalf("counter points = %+v", pts)
	}
	// Rate derives from the previous tick: 30 more in 1s.
	if pts := get("reqs_total:rate"); len(pts) != 1 || pts[0].Value != 30 {
		t.Fatalf("rate points = %+v", pts)
	}
	if pts := get("slack_gauge"); pts[len(pts)-1].Value != 0.5 {
		t.Fatalf("gauge points = %+v", pts)
	}
	key := `lat_seconds{route="place"}`
	if pts := get(key + ":count"); pts[len(pts)-1].Value != 4 {
		t.Fatalf("hist count points = %+v", pts)
	}
	// Tick 2's delta is {0.05, 0.5}: P99 interpolates inside the (0.1,1]
	// bucket, so it must exceed 0.1; tick 1's delta was all ≤0.1.
	p99 := get(key + ":p99")
	if len(p99) != 2 || p99[0].Value > 0.1 || p99[1].Value <= 0.1 {
		t.Fatalf("hist p99 points = %+v", p99)
	}
	// Burn target derives :good at the 100ms objective: 3 of 4
	// observations landed in buckets bounded ≤ 0.1.
	good := get(key + ":good")
	if good[len(good)-1].Value != 3 {
		t.Fatalf("good points = %+v", good)
	}
	if _, ok := m.Timeline("never-seen", 0); ok {
		t.Fatal("unknown series reported ok")
	}
}

func TestMonitorTimelineWindow(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.NewGauge("g", "gauge")
	fake := clock.NewFake(time.Unix(0, 0))
	m := New(reg, testConfig(), fake)
	for i := 1; i <= 10; i++ {
		g.Set(int64(i))
		fake.Advance(time.Second)
		m.Tick()
	}
	pts, ok := m.Timeline("g", 3*time.Second)
	if !ok || len(pts) != 4 { // samples at t-3s, t-2s, t-1s, t
		t.Fatalf("windowed points = %+v (ok=%v)", pts, ok)
	}
	if pts[len(pts)-1].Value != 10 {
		t.Fatalf("latest point = %+v", pts[len(pts)-1])
	}
}

// TestMonitorReplayParity drives a live monitor through a full
// healthy→critical→healthy cycle (via the WAL rule) while logging to a
// health JSONL buffer, then replays the log and requires the
// reconstructed verdict timeline to match the live one exactly.
func TestMonitorReplayParity(t *testing.T) {
	reg := metrics.NewRegistry()
	wal := reg.NewGauge(SeriesWALStickyError, "sticky wal error")
	slack := reg.NewFGauge(SeriesHeadroomMinSlack, "min slack")
	slack.Set(0.5)

	var buf bytes.Buffer
	sink := obs.NewHealthJSONL(&buf)
	cfg := testConfig()
	cfg.WAL.Series = SeriesWALStickyError
	cfg.Headroom.Series = SeriesHeadroomMinSlack
	fake := clock.NewFake(time.Unix(0, 0))
	m := New(reg, cfg, fake, WithSink(sink))

	tick := func() { fake.Advance(time.Second); m.Tick() }
	tick()
	tick()
	wal.Set(1)
	tick() // critical
	wal.Set(0)
	slack.Set(0.02) // below floor: stays critical on a different rule
	tick()
	slack.Set(0.6)
	tick()
	tick()
	tick() // recovery after hysteresis
	tick()

	live := m.Status()
	if live.State != Healthy || live.TransitionsTotal != 2 {
		t.Fatalf("live status = %+v", live)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadHealthJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Kind != obs.HealthKindConfig {
		t.Fatalf("first record kind = %q, want config", recs[0].Kind)
	}
	res, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 8 || res.Final != Healthy {
		t.Fatalf("replay result = %+v", res)
	}
	if !res.ParityOK() {
		t.Fatalf("parity failed:\nreplayed %+v\nrecorded %+v", res.Transitions, res.Recorded)
	}
	if len(res.Transitions) != len(live.Transitions) {
		t.Fatalf("replayed %d transitions, live %d", len(res.Transitions), len(live.Transitions))
	}
	for i, tr := range res.Transitions {
		lt := live.Transitions[i]
		if tr.TNs != lt.TNs || tr.From != lt.From || tr.To != lt.To {
			t.Fatalf("transition %d: replay %+v live %+v", i, tr, lt)
		}
	}
	// The critical transition must carry the WAL rule.
	if res.Transitions[0].To != Critical || res.Transitions[0].Rules[0] != "wal-sticky-error" {
		t.Fatalf("critical transition = %+v", res.Transitions[0])
	}
}

func TestReplayRejectsMalformedLogs(t *testing.T) {
	if _, err := Replay(nil); err == nil {
		t.Fatal("empty log replayed without error")
	}
	if _, err := Replay([]obs.HealthRecord{{Kind: obs.HealthKindSample, TNs: 1}}); err == nil {
		t.Fatal("sample before config replayed without error")
	}
	if _, err := Replay([]obs.HealthRecord{{Kind: "bogus"}}); err == nil {
		t.Fatal("unknown record kind replayed without error")
	}
}

// TestReplayRingBoundedBySamples: a replay holds no more samples than the
// log has, so its series rings are sized by the log's sample records, not
// by the ringCapacity of its config record, which a log can set to
// anything. A ring of the config's 1<<20 samples would take 16 MiB.
func TestReplayRingBoundedBySamples(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingCapacity = 1 << 20
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := []obs.HealthRecord{
		{Kind: obs.HealthKindConfig, Config: raw},
		{Kind: obs.HealthKindSample, TNs: 1e9, Values: map[string]float64{"g": 1}},
		{Kind: obs.HealthKindSample, TNs: 2e9, Values: map[string]float64{"g": 2}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Replay(recs)
	runtime.ReadMemStats(&after)
	if err != nil || res.Ticks != 2 || res.Config.RingCapacity != 1<<20 {
		t.Fatalf("replay: %+v, %v", res, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("replaying two samples of one series allocated %d bytes", alloc)
	}
}

// TestMonitorConcurrentWithWriters exercises the sampler loop against
// concurrent metric writers and readers; run with -race (the CI test job
// does) to catch torn scrapes.
func TestMonitorConcurrentWithWriters(t *testing.T) {
	reg := metrics.NewRegistry()
	hv := reg.NewHistogramVec("lat_seconds", "latency", []string{"route"}, 0.001, 0.01, 0.1, 1)
	h := hv.With("place")
	c := reg.NewCounter("reqs_total", "requests")
	g := reg.NewFGauge(SeriesHeadroomMinSlack, "slack")
	proc := metrics.NewProcessMetrics(reg)

	cfg := testConfig()
	cfg.Interval = time.Millisecond
	cfg.Burn.Targets = []string{`lat_seconds{route="place"}`}
	var buf bytes.Buffer
	m := New(reg, cfg, clock.Real(), WithSink(obs.NewHealthJSONL(&buf)), WithHook(proc.Update))
	m.Start()
	defer m.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				c.Inc()
				g.Set(v)
				v += 0.003
				if v > 1 {
					v -= 1
				}
			}
		}(0.1 * float64(w+1))
	}
	deadline := time.After(50 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			m.Status()
			m.Tick()
			m.Timeline(`lat_seconds{route="place"}:p99`, time.Second)
		}
	}
	close(stop)
	wg.Wait()
	m.Stop()
	if st := m.Status(); st.Ticks == 0 {
		t.Fatal("monitor never ticked")
	}
}

func TestMonitorStartStopIdempotent(t *testing.T) {
	m := New(metrics.NewRegistry(), testConfig(), clock.Real())
	m.Stop() // never started: no-op
	m.Start()
	m.Start()
	m.Stop()
	m.Stop()
}
