// Package telemetry turns the instantaneous gauges of internal/metrics
// into trends and verdicts: a fixed-interval sampler scrapes the
// registry (via Registry.Snapshot) into bounded in-memory ring
// time-series — counter values and rates, gauge samples, histogram-delta
// percentiles — and a declarative rule engine evaluates SLOs and
// invariants against those series every tick:
//
//   - multi-window burn rate on admission latency (fast and slow windows
//     against a configurable objective, SRE-workbook style),
//   - a headroom red-line floor on cubefit_headroom_min_slack with an
//     erosion-rate projection ("time until red line at current trend"),
//   - queue-saturation and oldest-wait thresholds from the pipeline
//     tracer gauges,
//   - WAL sticky-error detection (fail-closed ⇒ immediately critical),
//   - a placer-stall watchdog (no placement progress while the queue
//     stays non-empty).
//
// Rule outcomes drive a healthy→degraded→critical state machine with
// hysteresis (escalation is immediate, de-escalation waits for
// RecoverTicks consecutive cleaner ticks), exposed by internal/api as
// /healthz, /readyz, /debug/health, and /debug/timeline.
//
// Every tick's sample set and every state transition can stream to an
// obs.HealthRecorder as JSONL. The rule engine consumes nothing but the
// sample stream and its own configuration (written as the log's first
// record), so Replay deterministically reproduces the live verdict
// timeline from a recorded log (`cubefit-inspect health`).
package telemetry

import (
	"fmt"
	"time"
)

// State is the health verdict.
type State int

// Health states, in escalation order.
const (
	Healthy State = iota
	Degraded
	Critical
)

var stateNames = [...]string{"healthy", "degraded", "critical"}

func (s State) String() string {
	if s < Healthy || s > Critical {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalJSON renders the state as its name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a state name.
func (s *State) UnmarshalJSON(b []byte) error {
	for i, n := range stateNames {
		if string(b) == `"`+n+`"` {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown state %s", b)
}

// Finding is one rule firing at one tick.
type Finding struct {
	// Rule names the firing rule; burn-rate findings embed their target
	// series ("slo-burn:<series>").
	Rule     string `json:"rule"`
	Severity State  `json:"severity"`
	// Value is the rule's observed quantity and Threshold the limit it
	// crossed, in the rule's own unit (burn multiple, slack fraction,
	// queue fraction, seconds).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Evidence is one human-readable line justifying the finding.
	Evidence string `json:"evidence"`
}

// Transition is one health-state change.
type Transition struct {
	// TNs is the tick timestamp on the sampler's monotonic scale.
	TNs  int64 `json:"tNs"`
	From State `json:"from"`
	To   State `json:"to"`
	// Rules and Evidence describe the findings at the new state's
	// severity (empty on a recovery to healthy).
	Rules    []string `json:"rules,omitempty"`
	Evidence []string `json:"evidence,omitempty"`
}

// Point is one retained sample of one series.
type Point struct {
	TNs   int64   `json:"tNs"`
	Value float64 `json:"value"`
}

// Status is the full health verdict reported by /debug/health.
type Status struct {
	State State `json:"state"`
	// Ticks is the number of evaluated sample ticks.
	Ticks uint64 `json:"ticks"`
	// Findings are the rules firing as of the last tick.
	Findings []Finding `json:"findings"`
	// Transitions are the most recent state changes (oldest first,
	// bounded); TransitionsTotal counts all of them.
	Transitions      []Transition `json:"transitions"`
	TransitionsTotal uint64       `json:"transitionsTotal"`
}

// Default rule thresholds; every Config zero value falls back to these.
const (
	// DefaultInterval is the sampling period.
	DefaultInterval = time.Second
	// DefaultRingCapacity bounds each series ring (samples retained).
	DefaultRingCapacity = 4096
	// DefaultRecoverTicks is the de-escalation hysteresis: consecutive
	// cleaner ticks required before the state steps down.
	DefaultRecoverTicks = 3
	// DefaultObjective is the admission latency objective ("good"
	// requests complete within it).
	DefaultObjective = 100 * time.Millisecond
	// DefaultBudget is the allowed bad-request fraction (99% objective).
	DefaultBudget = 0.01
	// DefaultFastBurnWindow / DefaultSlowBurnWindow are the two burn-rate
	// windows; both must breach for the rule to fire.
	DefaultFastBurnWindow = time.Minute
	DefaultSlowBurnWindow = time.Hour
	// DefaultDegradedBurn / DefaultCriticalBurn are burn-rate multiples
	// of the budget (14.4× ≈ a 30-day budget gone in 2 days).
	DefaultDegradedBurn = 3.0
	DefaultCriticalBurn = 14.4
	// DefaultHeadroomTrendWindow is the span the erosion slope is fit
	// over; DefaultHeadroomProjection the look-ahead horizon that makes a
	// negative trend degraded.
	DefaultHeadroomTrendWindow = 5 * time.Minute
	DefaultHeadroomProjection  = 15 * time.Minute
	// DefaultQueueDegradedFraction / DefaultQueueCriticalFraction are
	// queue depth over capacity thresholds.
	DefaultQueueDegradedFraction = 0.5
	DefaultQueueCriticalFraction = 0.9
	// DefaultDegradedWaitSeconds / DefaultCriticalWaitSeconds bound the
	// oldest queued admission's wait.
	DefaultDegradedWaitSeconds = 1.0
	DefaultCriticalWaitSeconds = 5.0
	// DefaultStallWindow is the no-progress span after which a non-empty
	// queue marks the placer degraded (critical after twice that).
	DefaultStallWindow = 10 * time.Second
)

// Well-known series the default rules watch. Histogram-derived series
// append a suffix to the metrics.SeriesKey of their histogram child:
// ":count" (cumulative observations), ":p50"/":p99" (per-tick-delta
// percentile estimates), and ":good" (cumulative observations at or
// under the burn objective, burn targets only). Counters likewise get a
// derived ":rate" (per-second) alongside their cumulative value.
const (
	SeriesHeadroomMinSlack = "cubefit_headroom_min_slack"
	SeriesQueueDepth       = "cubefit_pipeline_queue_depth"
	SeriesOldestWait       = "cubefit_pipeline_oldest_wait_seconds"
	SeriesWALStickyError   = "cubefit_wal_sticky_error"
	SeriesPlaceProgress    = "cubefit_pipeline_jobs_resolved_total"
)

// BurnConfig parameterizes the multi-window SLO burn-rate rule.
type BurnConfig struct {
	// Objective is the latency objective: an observation is "good" when
	// its histogram bucket bound is at or under it.
	Objective time.Duration `json:"objectiveNs"`
	// Budget is the allowed bad fraction (0.01 ⇒ 99% within objective).
	Budget float64 `json:"budget"`
	// FastWindow and SlowWindow are the two lookbacks; the burn rate must
	// exceed the threshold over both to fire (short blips and stale
	// incidents both stay quiet).
	FastWindow time.Duration `json:"fastWindowNs"`
	SlowWindow time.Duration `json:"slowWindowNs"`
	// DegradedBurn and CriticalBurn are budget-burn multiples.
	DegradedBurn float64 `json:"degradedBurn"`
	CriticalBurn float64 `json:"criticalBurn"`
	// Targets are histogram series keys (metrics.SeriesKey form) whose
	// ":count"/":good" derived series feed the rule.
	Targets []string `json:"targets"`
}

// HeadroomConfig parameterizes the red-line floor and erosion projection.
type HeadroomConfig struct {
	Series string `json:"series"`
	// Floor is the red-line slack: below it the rule is degraded. Slack
	// below 0, where the cluster cannot absorb its worst-case failure set,
	// is critical whatever the floor.
	Floor float64 `json:"floor"`
	// TrendWindow is the span the erosion slope is estimated over (at
	// least half of it must be covered by samples before projecting).
	TrendWindow time.Duration `json:"trendWindowNs"`
	// ProjectionHorizon marks the rule degraded when the current negative
	// trend would cross the floor within it.
	ProjectionHorizon time.Duration `json:"projectionHorizonNs"`
}

// QueueConfig parameterizes the queue-saturation and oldest-wait rules.
type QueueConfig struct {
	DepthSeries string `json:"depthSeries"`
	// Capacity is the admission queue's bound (the api layer wires the
	// pipeline's real capacity in).
	Capacity         int     `json:"capacity"`
	DegradedFraction float64 `json:"degradedFraction"`
	CriticalFraction float64 `json:"criticalFraction"`

	OldestWaitSeries    string  `json:"oldestWaitSeries"`
	DegradedWaitSeconds float64 `json:"degradedWaitSeconds"`
	CriticalWaitSeconds float64 `json:"criticalWaitSeconds"`
}

// WALConfig parameterizes sticky-WAL-error detection.
type WALConfig struct {
	// Series is a gauge that is ≥1 while the write-ahead log carries a
	// sticky commit error (admissions failing closed).
	Series string `json:"series"`
}

// StallConfig parameterizes the placer-stall watchdog.
type StallConfig struct {
	DepthSeries string `json:"depthSeries"`
	// ProgressSeries is a cumulative count that advances whenever the
	// placer completes work (by default the jobs it resolved, admissions
	// and departures alike, whatever their outcome).
	ProgressSeries string `json:"progressSeries"`
	// Window: no progress for a full Window with the queue continuously
	// non-empty is degraded; for two Windows, critical.
	Window time.Duration `json:"windowNs"`
}

// Config is the full telemetry configuration. It marshals losslessly to
// JSON and is written verbatim as the health log's first record, so a
// replay rebuilds an identical rule engine.
type Config struct {
	// Interval is the sampling period of the background loop.
	Interval time.Duration `json:"intervalNs"`
	// RingCapacity bounds every series ring.
	RingCapacity int `json:"ringCapacity"`
	// RecoverTicks is the de-escalation hysteresis.
	RecoverTicks int `json:"recoverTicks"`

	Burn     BurnConfig     `json:"burn"`
	Headroom HeadroomConfig `json:"headroom"`
	Queue    QueueConfig    `json:"queue"`
	WAL      WALConfig      `json:"wal"`
	Stall    StallConfig    `json:"stall"`
}

// DefaultConfig returns the default rule set, watching the admission
// latency histograms, the headroom auditor, the pipeline tracer gauges,
// and the WAL error gauge.
func DefaultConfig() Config {
	return Config{
		Interval:     DefaultInterval,
		RingCapacity: DefaultRingCapacity,
		RecoverTicks: DefaultRecoverTicks,
		Burn: BurnConfig{
			Objective:    DefaultObjective,
			Budget:       DefaultBudget,
			FastWindow:   DefaultFastBurnWindow,
			SlowWindow:   DefaultSlowBurnWindow,
			DegradedBurn: DefaultDegradedBurn,
			CriticalBurn: DefaultCriticalBurn,
			Targets: []string{
				`cubefit_http_request_duration_seconds{route="place"}`,
				`cubefit_http_request_duration_seconds{route="place_batch"}`,
			},
		},
		Headroom: HeadroomConfig{
			Series:            SeriesHeadroomMinSlack,
			Floor:             0.05,
			TrendWindow:       DefaultHeadroomTrendWindow,
			ProjectionHorizon: DefaultHeadroomProjection,
		},
		Queue: QueueConfig{
			DepthSeries:         SeriesQueueDepth,
			Capacity:            0, // wired by the api layer
			DegradedFraction:    DefaultQueueDegradedFraction,
			CriticalFraction:    DefaultQueueCriticalFraction,
			OldestWaitSeries:    SeriesOldestWait,
			DegradedWaitSeconds: DefaultDegradedWaitSeconds,
			CriticalWaitSeconds: DefaultCriticalWaitSeconds,
		},
		WAL:   WALConfig{Series: SeriesWALStickyError},
		Stall: StallConfig{DepthSeries: SeriesQueueDepth, ProgressSeries: SeriesPlaceProgress, Window: DefaultStallWindow},
	}
}

// withDefaults fills zero operational fields so a partially specified
// Config behaves predictably and marshals fully populated.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = DefaultRingCapacity
	}
	if c.RecoverTicks <= 0 {
		c.RecoverTicks = DefaultRecoverTicks
	}
	if c.Burn.Budget <= 0 {
		c.Burn.Budget = DefaultBudget
	}
	if c.Burn.Objective <= 0 {
		c.Burn.Objective = DefaultObjective
	}
	if c.Burn.FastWindow <= 0 {
		c.Burn.FastWindow = DefaultFastBurnWindow
	}
	if c.Burn.SlowWindow <= 0 {
		c.Burn.SlowWindow = DefaultSlowBurnWindow
	}
	if c.Burn.DegradedBurn <= 0 {
		c.Burn.DegradedBurn = DefaultDegradedBurn
	}
	if c.Burn.CriticalBurn <= 0 {
		c.Burn.CriticalBurn = DefaultCriticalBurn
	}
	return c
}
