package api

import (
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
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

// engineMetrics are the engine families of /metrics: decision events by
// kind, counted from each mutation's events, and the servers-opened and
// active-mature-bins gauges, set from the engine's own state at
// construction and after each mutation, so a controller started on a
// recovered engine reports it from the first scrape. observe runs under
// the controller's write lock; the values are atomics, so scrapes read
// them without it.
type engineMetrics struct {
	alg     packing.Algorithm
	events  *metrics.CounterVec
	servers *metrics.Gauge
	mature  *metrics.Gauge
	// bins is alg's mature-bin count, nil for an engine without one.
	bins interface{ NumActiveMatureBins() int }
	// kinds caches the labelled children, so a delivery resolves no label
	// after each child's first use.
	kinds map[obs.Kind]*metrics.Counter
}

func newEngineMetrics(r *metrics.Registry, alg packing.Algorithm) *engineMetrics {
	m := &engineMetrics{
		alg: alg,
		events: r.NewCounterVec("cubefit_engine_events_total",
			"Placement decision events by kind.", "kind"),
		servers: r.NewGauge("cubefit_servers_opened",
			"Servers opened by the engine."),
		mature: r.NewGauge("cubefit_active_mature_bins",
			"Mature bins currently eligible for first-stage placement."),
		kinds: make(map[obs.Kind]*metrics.Counter),
	}
	m.bins, _ = alg.(interface{ NumActiveMatureBins() int })
	m.setGauges()
	return m
}

// observe counts one mutation's events by kind and sets the gauges from
// the engine. The caller holds the controller's write lock, which also
// guards the child cache.
func (m *engineMetrics) observe(events []obs.Event) {
	for i := range events {
		kind := events[i].Kind
		kc := m.kinds[kind]
		if kc == nil {
			kc = m.events.With(string(kind))
			m.kinds[kind] = kc
		}
		kc.Inc()
	}
	m.setGauges()
}

// setGauges reads the gauges from the engine.
func (m *engineMetrics) setGauges() {
	m.servers.Set(int64(m.alg.Placement().NumServers()))
	if m.bins != nil {
		m.mature.Set(int64(m.bins.NumActiveMatureBins()))
	}
}
