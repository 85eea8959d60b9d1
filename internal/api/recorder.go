package api

import (
	"strconv"

	"cubefit/internal/metrics"
	"cubefit/internal/obs"
)

// eventBuffer is the engine's decision recorder: Record appends each event
// of the mutation in progress, in engine order, and mutatedLocked delivers
// the whole mutation once. The engine records under the controller's
// write lock and the delivery runs under the same lock, so the buffer has
// no lock of its own.
type eventBuffer struct {
	events []obs.Event
}

// maxRetainedEvents bounds the capacity the buffer keeps between
// mutations (about 900 KB of events). A coalesced batch of 128 tenants
// records about a thousand events; a larger one grows the buffer for its
// own delivery only, so one 4096-tenant batch does not pin megabytes for
// the life of the process.
const maxRetainedEvents = 4096

// Record implements obs.Recorder.
func (b *eventBuffer) Record(e obs.Event) { b.events = append(b.events, e) }

// reset empties the buffer after a delivery. Clearing the delivered
// events drops their digit trails and reasons, which the ring holds on
// to in its own copies.
func (b *eventBuffer) reset() {
	if cap(b.events) > maxRetainedEvents {
		b.events = nil
		return
	}
	clear(b.events)
	b.events = b.events[:0]
}

// engineMetrics are the /metrics families fed by the decision events:
// events by kind, servers opened, mature bins and cube cursors. observe
// folds one mutation's events into them under the controller's write
// lock; the values are atomics, so scrapes read them without it.
type engineMetrics struct {
	events  *metrics.CounterVec
	servers *metrics.Gauge
	mature  *metrics.Gauge
	cursor  *metrics.GaugeVec
	// kinds and cursors cache the labelled children, so a delivery
	// resolves no label after each child's first use.
	kinds   map[obs.Kind]*metrics.Counter
	cursors map[cursorKey]*metrics.Gauge
}

// cursorKey labels one cube's cursor gauge.
type cursorKey struct {
	class int
	tiny  bool
}

func newEngineMetrics(r *metrics.Registry) *engineMetrics {
	return &engineMetrics{
		events: r.NewCounterVec("cubefit_engine_events_total",
			"Placement decision events by kind.", "kind"),
		servers: r.NewGauge("cubefit_servers_opened",
			"Servers opened by the engine."),
		mature: r.NewGauge("cubefit_active_mature_bins",
			"Mature bins currently eligible for first-stage placement."),
		cursor: r.NewGaugeVec("cubefit_cube_cursor",
			"Cube counter position (slots closed since the last wrap) by class.",
			"class", "tiny"),
		kinds:   make(map[obs.Kind]*metrics.Counter),
		cursors: make(map[cursorKey]*metrics.Gauge),
	}
}

// observe folds one mutation's events into the families. The caller
// holds the controller's write lock, which also guards the child caches.
func (m *engineMetrics) observe(events []obs.Event) {
	for i := range events {
		e := &events[i]
		kc := m.kinds[e.Kind]
		if kc == nil {
			kc = m.events.With(string(e.Kind))
			m.kinds[e.Kind] = kc
		}
		kc.Inc()
		switch e.Kind {
		case obs.KindBinOpen:
			m.servers.Inc()
		case obs.KindBinMature, obs.KindBinReactivate:
			m.mature.Inc()
		case obs.KindBinRetire:
			m.mature.Dec()
		case obs.KindCubeAdvance:
			key := cursorKey{class: e.Class, tiny: e.Tiny}
			g := m.cursors[key]
			if g == nil {
				g = m.cursor.With(strconv.Itoa(e.Class), strconv.FormatBool(e.Tiny))
				m.cursors[key] = g
			}
			g.Set(int64(e.Counter))
		}
	}
}
