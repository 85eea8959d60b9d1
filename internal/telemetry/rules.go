package telemetry

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cubefit/internal/packing"
)

// transitionWindow bounds the retained transition history; the total
// count keeps climbing past it.
const transitionWindow = 256

// engine is the sample-stream consumer shared verbatim between the live
// Monitor and offline Replay: rings, rule evaluation, and the hysteresis
// state machine. It deliberately sees nothing but (tNs, values) ticks —
// that blindness is what makes a recorded sample log replay into the
// exact live verdict sequence. Callers serialize access.
type engine struct {
	cfg   Config
	store *seriesStore

	state State
	// clean counts consecutive ticks whose observed severity was below
	// the held state; RecoverTicks of them de-escalate.
	clean    int
	findings []Finding

	transitions      []Transition
	transitionsTotal uint64

	lastNs int64
	ticks  uint64
}

func newEngine(cfg Config) *engine {
	cfg = cfg.withDefaults()
	return &engine{cfg: cfg, store: newSeriesStore(cfg.RingCapacity)}
}

// ingest runs one tick: record the sample set, evaluate every rule, and
// advance the state machine. It returns the effective (monotonic)
// timestamp and the transition, if this tick caused one.
func (e *engine) ingest(tNs int64, values map[string]float64) (int64, *Transition) {
	if tNs <= e.lastNs {
		tNs = e.lastNs + 1
	}
	e.lastNs = tNs
	for key, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		e.store.ring(key).push(tNs, v)
	}
	e.ticks++
	e.findings = e.evaluate(tNs)
	observed := Healthy
	for _, f := range e.findings {
		if f.Severity > observed {
			observed = f.Severity
		}
	}
	switch {
	case observed > e.state:
		// Escalate immediately.
		tr := e.transition(tNs, observed)
		return tNs, tr
	case observed < e.state:
		e.clean++
		if e.clean >= e.cfg.RecoverTicks {
			tr := e.transition(tNs, observed)
			return tNs, tr
		}
	default:
		e.clean = 0
	}
	return tNs, nil
}

// transition moves the state machine to next and records the change.
func (e *engine) transition(tNs int64, next State) *Transition {
	tr := Transition{TNs: tNs, From: e.state, To: next}
	for _, f := range e.findings {
		if f.Severity == next {
			tr.Rules = append(tr.Rules, f.Rule)
			tr.Evidence = append(tr.Evidence, f.Evidence)
		}
	}
	e.state = next
	e.clean = 0
	if len(e.transitions) == transitionWindow {
		copy(e.transitions, e.transitions[1:])
		e.transitions = e.transitions[:transitionWindow-1]
	}
	e.transitions = append(e.transitions, tr)
	e.transitionsTotal++
	return &tr
}

// evaluate runs every rule in a fixed order (burn targets in config
// order, then headroom, queue, WAL, stall), so finding and evidence
// lists are deterministic for a given sample history.
func (e *engine) evaluate(nowNs int64) []Finding {
	var out []Finding
	targets := append([]string(nil), e.cfg.Burn.Targets...)
	sort.Strings(targets)
	for _, target := range targets {
		if f, ok := e.burnFinding(nowNs, target); ok {
			out = append(out, f)
		}
	}
	if f, ok := e.headroomFinding(nowNs); ok {
		out = append(out, f)
	}
	if f, ok := e.queueSaturationFinding(); ok {
		out = append(out, f)
	}
	if f, ok := e.oldestWaitFinding(); ok {
		out = append(out, f)
	}
	if f, ok := e.walFinding(); ok {
		out = append(out, f)
	}
	if f, ok := e.stallFinding(nowNs); ok {
		out = append(out, f)
	}
	return out
}

// burnFinding implements the multi-window burn rate for one latency
// histogram: burn = (bad fraction over window) / budget, and both the
// fast and slow windows must exceed the threshold. Windows shorter than
// configured (cold start, short test runs) evaluate over the available
// history once two samples exist — documented semantics, not a special
// case: the burn over "everything we have seen" is the best estimate of
// both windows until the rings fill.
func (e *engine) burnFinding(nowNs int64, target string) (Finding, bool) {
	cfg := e.cfg.Burn
	countR := e.store.lookup(target + ":count")
	goodR := e.store.lookup(target + ":good")
	if countR == nil || goodR == nil {
		return Finding{}, false
	}
	fastBurn, fastOK := burnOver(countR, goodR, nowNs, cfg.FastWindow.Nanoseconds(), cfg.Budget)
	slowBurn, slowOK := burnOver(countR, goodR, nowNs, cfg.SlowWindow.Nanoseconds(), cfg.Budget)
	if !fastOK || !slowOK {
		return Finding{}, false
	}
	burn := math.Min(fastBurn, slowBurn) // the binding window
	f := Finding{
		Value: burn,
		Evidence: fmt.Sprintf("latency burn %.1f×/%.1f× (fast/slow) of %.3g budget at objective %s on %s",
			fastBurn, slowBurn, cfg.Budget, cfg.Objective, target),
	}
	switch {
	case burn >= cfg.CriticalBurn:
		f.Severity, f.Threshold = Critical, cfg.CriticalBurn
	case burn >= cfg.DegradedBurn:
		f.Severity, f.Threshold = Degraded, cfg.DegradedBurn
	default:
		return Finding{}, false
	}
	f.Rule = "slo-burn:" + target
	return f, true
}

// burnOver computes the budget-burn multiple over one window; ok is
// false until the window has two samples and at least one observation.
func burnOver(countR, goodR *seriesRing, nowNs, windowNs int64, budget float64) (float64, bool) {
	dN, _, okN := countR.delta(nowNs, windowNs)
	dGood, _, okG := goodR.delta(nowNs, windowNs)
	if !okN || !okG || dN < 0.5 {
		return 0, false
	}
	bad := (dN - dGood) / dN
	if bad < 0 {
		bad = 0
	}
	return bad / budget, true
}

// headroomFinding reads the minimum failover slack. Slack below 0 (beyond
// packing's capacity tolerance) means the robustness invariant is violated,
// which only a bug can cause: critical. Slack below the red-line floor is
// degraded, because CubeFit packs mature bins close to it by design; so is
// an erosion trend whose current slope crosses the floor within the
// projection horizon.
func (e *engine) headroomFinding(nowNs int64) (Finding, bool) {
	cfg := e.cfg.Headroom
	r := e.store.lookup(cfg.Series)
	_, v, ok := r.latest()
	if !ok {
		return Finding{}, false
	}
	if v < -packing.CapacityEps {
		return Finding{
			Rule: "headroom-violation", Severity: Critical,
			Value: v, Threshold: 0,
			Evidence: fmt.Sprintf("min failover slack %.3g below 0: a worst-case failure set would overload a server", v),
		}, true
	}
	if v < cfg.Floor {
		return Finding{
			Rule: "headroom-redline", Severity: Degraded,
			Value: v, Threshold: cfg.Floor,
			Evidence: fmt.Sprintf("min failover slack %.3f below red line %.3f", v, cfg.Floor),
		}, true
	}
	if cfg.TrendWindow <= 0 || cfg.ProjectionHorizon <= 0 {
		return Finding{}, false
	}
	dv, spanNs, ok := r.delta(nowNs, cfg.TrendWindow.Nanoseconds())
	// Project only from a slope fit over at least half the trend window;
	// two adjacent boot ticks are noise, not a trend.
	if !ok || 2*spanNs < cfg.TrendWindow.Nanoseconds() || dv >= 0 {
		return Finding{}, false
	}
	nsUntil := (v - cfg.Floor) * float64(spanNs) / -dv
	horizon := float64(cfg.ProjectionHorizon.Nanoseconds())
	if nsUntil > horizon {
		return Finding{}, false
	}
	eta := time.Duration(nsUntil).Round(time.Second)
	return Finding{
		Rule: "headroom-erosion", Severity: Degraded,
		Value: nsUntil / 1e9, Threshold: horizon / 1e9,
		Evidence: fmt.Sprintf("min slack %.3f eroding toward red line %.3f, crossing in ~%s at current trend",
			v, cfg.Floor, eta),
	}, true
}

// queueSaturationFinding thresholds queue depth over capacity.
func (e *engine) queueSaturationFinding() (Finding, bool) {
	cfg := e.cfg.Queue
	if cfg.Capacity <= 0 {
		return Finding{}, false
	}
	_, depth, ok := e.store.lookup(cfg.DepthSeries).latest()
	if !ok {
		return Finding{}, false
	}
	frac := depth / float64(cfg.Capacity)
	f := Finding{
		Value: frac,
		Evidence: fmt.Sprintf("admission queue %d/%d (%.0f%% full)",
			int(depth), cfg.Capacity, 100*frac),
	}
	switch {
	case cfg.CriticalFraction > 0 && frac >= cfg.CriticalFraction:
		f.Severity, f.Threshold = Critical, cfg.CriticalFraction
	case cfg.DegradedFraction > 0 && frac >= cfg.DegradedFraction:
		f.Severity, f.Threshold = Degraded, cfg.DegradedFraction
	default:
		return Finding{}, false
	}
	f.Rule = "queue-saturation"
	return f, true
}

// oldestWaitFinding thresholds the oldest queued admission's wait.
func (e *engine) oldestWaitFinding() (Finding, bool) {
	cfg := e.cfg.Queue
	_, wait, ok := e.store.lookup(cfg.OldestWaitSeries).latest()
	if !ok {
		return Finding{}, false
	}
	f := Finding{
		Value:    wait,
		Evidence: fmt.Sprintf("oldest queued admission waiting %.2fs", wait),
	}
	switch {
	case cfg.CriticalWaitSeconds > 0 && wait >= cfg.CriticalWaitSeconds:
		f.Severity, f.Threshold = Critical, cfg.CriticalWaitSeconds
	case cfg.DegradedWaitSeconds > 0 && wait >= cfg.DegradedWaitSeconds:
		f.Severity, f.Threshold = Degraded, cfg.DegradedWaitSeconds
	default:
		return Finding{}, false
	}
	f.Rule = "queue-wait"
	return f, true
}

// walFinding marks a sticky WAL error immediately critical: the
// admission path is failing closed, so readiness must drop now, not
// after a trend.
func (e *engine) walFinding() (Finding, bool) {
	_, v, ok := e.store.lookup(e.cfg.WAL.Series).latest()
	if !ok || v < 0.5 {
		return Finding{}, false
	}
	return Finding{
		Rule: "wal-sticky-error", Severity: Critical,
		Value: v, Threshold: 1,
		Evidence: "write-ahead log carries a sticky commit error; admissions are failing closed",
	}, true
}

// stallFinding is the placer watchdog: the queue has stayed non-empty
// across a full window with zero placement progress. One window is
// degraded, two are critical, so an unfolding stall walks the state
// machine through both stages.
func (e *engine) stallFinding(nowNs int64) (Finding, bool) {
	cfg := e.cfg.Stall
	if cfg.Window <= 0 {
		return Finding{}, false
	}
	depthR := e.store.lookup(cfg.DepthSeries)
	progR := e.store.lookup(cfg.ProgressSeries)
	_, depth, ok := depthR.latest()
	if !ok || depth < 0.5 {
		return Finding{}, false
	}
	windowNs := cfg.Window.Nanoseconds()
	stalled := func(spanWindowNs int64) (int64, bool) {
		dProg, spanNs, ok := progR.delta(nowNs, spanWindowNs)
		if !ok || spanNs < spanWindowNs || dProg >= 0.5 {
			return 0, false
		}
		minDepth, ok := depthR.minSince(nowNs - spanNs)
		if !ok || minDepth < 0.5 {
			return 0, false
		}
		return spanNs, true
	}
	span, isStalled := stalled(windowNs)
	if !isStalled {
		return Finding{}, false
	}
	sev, threshold := Degraded, float64(windowNs)/1e9
	if span2, crit := stalled(2 * windowNs); crit {
		sev, threshold, span = Critical, 2*float64(windowNs)/1e9, span2
	}
	return Finding{
		Rule: "placer-stall", Severity: sev,
		Value: float64(span) / 1e9, Threshold: threshold,
		Evidence: fmt.Sprintf("no placement progress for %s with %d jobs queued",
			time.Duration(span).Round(time.Millisecond), int(depth)),
	}, true
}
