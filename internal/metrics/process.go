package metrics

import (
	"math"
	rtm "runtime/metrics"
	"sync"
)

// Process self-metrics: runtime signals the telemetry sampler watches
// alongside the workload metrics — a goroutine leak, heap growth, or GC
// pause inflation shows up in the same timeline as the admission SLOs.

// runtime/metrics sample names read by ProcessMetrics.Update.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapInuse  = "/memory/classes/heap/objects:bytes"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
)

// ProcessMetrics exports process-level runtime gauges:
//
//	cubefit_process_goroutines          current goroutine count
//	cubefit_process_heap_inuse_bytes    bytes in live + dead heap objects
//	cubefit_process_gc_pause_p99_seconds  P99 GC pause, all-time histogram
//
// Update refreshes the gauges from one runtime/metrics read. The api
// controller runs it before each telemetry tick and before each GET
// /metrics exposition, so the gauges are only as stale as the read
// serving them.
type ProcessMetrics struct {
	goroutines *Gauge
	heapInuse  *Gauge
	gcPauseP99 *FGauge
	// mu serializes Update: the sample slice is reused across reads.
	mu sync.Mutex
	//cubefit:guarded-by mu
	samples []rtm.Sample
}

// NewProcessMetrics registers the process gauges on r.
func NewProcessMetrics(r *Registry) *ProcessMetrics {
	return &ProcessMetrics{
		goroutines: r.NewGauge("cubefit_process_goroutines",
			"Current number of live goroutines."),
		heapInuse: r.NewGauge("cubefit_process_heap_inuse_bytes",
			"Bytes occupied by live and dead heap objects."),
		gcPauseP99: r.NewFGauge("cubefit_process_gc_pause_p99_seconds",
			"P99 stop-the-world GC pause over the process lifetime."),
		samples: []rtm.Sample{
			{Name: rmGoroutines},
			{Name: rmHeapInuse},
			{Name: rmGCPauses},
		},
	}
}

// Update re-reads the runtime metrics into the registered gauges. It is
// safe for concurrent use.
func (p *ProcessMetrics) Update() {
	p.mu.Lock()
	defer p.mu.Unlock()
	rtm.Read(p.samples)
	for i := range p.samples {
		s := &p.samples[i]
		switch s.Name {
		case rmGoroutines:
			if s.Value.Kind() == rtm.KindUint64 {
				p.goroutines.Set(int64(s.Value.Uint64()))
			}
		case rmHeapInuse:
			if s.Value.Kind() == rtm.KindUint64 {
				p.heapInuse.Set(int64(s.Value.Uint64()))
			}
		case rmGCPauses:
			if s.Value.Kind() == rtm.KindFloat64Histogram {
				p.gcPauseP99.Set(histogramP99(s.Value.Float64Histogram()))
			}
		}
	}
}

// histogramP99 adapts a runtime/metrics histogram (len(Buckets) ==
// len(Counts)+1 edges, possibly ±Inf at either end) to the fixed-bucket
// shape QuantileFromBuckets expects (finite upper bounds plus a +Inf
// overflow bucket). Returns 0 before the first GC.
func histogramP99(h *rtm.Float64Histogram) float64 {
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return 0
	}
	// Upper edge of bucket i is Buckets[i+1].
	upper := h.Buckets[1:]
	counts := h.Counts
	bounds := upper
	if math.IsInf(upper[len(upper)-1], +1) {
		// Last bucket is the +Inf overflow: its finite bounds are the rest.
		bounds = upper[:len(upper)-1]
	} else {
		// No overflow bucket in the runtime histogram; give the quantile
		// helper an empty one.
		counts = append(append([]uint64(nil), counts...), 0)
	}
	if len(bounds) == 0 {
		return 0
	}
	q := QuantileFromBuckets(bounds, counts, 0.99)
	if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
		return 0
	}
	return q
}
