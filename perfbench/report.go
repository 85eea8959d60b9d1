package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// traceReport is a --trace 1 run: an untraced pass for the overhead and
// the process costs, then the traced pass for the layers.
type traceReport struct {
	untraced, traced *result
	tr               *tracer
	layers           []metric
	sources          []string // where each layer metric's samples came from
	spanFile         string
}

func runTraced(p params, seed uint64, d time.Duration, dir string) (*traceReport, error) {
	base, err := runWorkload(p, seed, d, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	runtime.GC()
	tr := newTracer()
	traced, err := runWorkload(p, seed, d, 1, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rep := &traceReport{untraced: base, traced: traced, tr: tr,
		spanFile: filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", p.name, seed))}
	if err := tr.writeSpans(rep.spanFile); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	rep.layers, rep.sources = tr.layerMetrics(base, traced)
	return rep, nil
}

// costOps is the operations a run's process cost is divided by: acked
// tenant operations, or on restart every logged operation of every boot.
func costOps(r *result) float64 {
	if r.p.phase == phaseRestart {
		return float64(r.phase.ops * r.phase.loggedOps)
	}
	return float64(r.phase.ops)
}

// layerMetrics computes the per-layer metrics. Each comes from the
// measured phase when that phase makes the call it times; a call only
// set-up makes (departures on batch-grow; admissions, departures and
// syncs on restart; the boot on batch-grow and single-churn) is timed in
// set-up, which runs through the same wrappers. The process costs come
// from the untraced pass, which tracing would otherwise inflate.
func (t *tracer) layerMetrics(base, traced *result) ([]metric, []string) {
	setup, meas := &t.aggs[inSetup], &t.aggs[inMeasured]
	ops := map[*layerAgg]float64{setup: float64(traced.setupOps), meas: float64(traced.phase.ops)}
	var ms []metric
	var srcs []string
	add := func(a *layerAgg, name string, v float64, unit string) {
		ms = append(ms, metric{name, v, unit})
		src := "set-up"
		if a == meas {
			src = "measured"
		}
		if a == nil {
			src = "untraced measured"
		}
		srcs = append(srcs, src)
	}
	pick := func(has func(*layerAgg) bool) *layerAgg {
		if has(meas) {
			return meas
		}
		return setup
	}

	a := pick(func(a *layerAgg) bool { return len(mutations(a)) > 0 })
	hs, tps := handlerAndTransport(a)
	add(a, "api.handler_us", median(hs), "us")
	add(a, "api.transport_us", median(tps), "us")
	a = pick(func(a *layerAgg) bool { return len(a.pipeline) > 0 })
	q, tail := make([]float64, len(a.pipeline)), make([]float64, len(a.pipeline))
	for i, s := range a.pipeline {
		q[i], tail[i] = float64(s.queueNs)/1e3, float64(s.walNs)/1e3
	}
	add(a, "api.queue_us", median(q), "us")
	add(a, "api.batch_tail_us", median(tail), "us")
	for i, name := range []string{"core.place_us", "core.remove_us"} {
		a = pick(func(a *layerAgg) bool { return a.engine[i].calls > 0 })
		e := a.engine[i]
		add(a, name, ratioOf(float64(e.total-e.nested)/1e3, float64(e.calls)), "us")
	}
	a = pick(func(a *layerAgg) bool { return a.admits > 0 })
	add(a, "core.probes_per_admit", ratioOf(float64(a.probes), float64(a.admits)), "count")
	add(a, "core.first_stage_share", ratioOf(float64(a.firstStage), float64(a.admits)), "ratio")
	a = pick(func(a *layerAgg) bool { return a.records > 0 })
	add(a, "obs.events_per_op", ratioOf(float64(a.records), ops[a]), "count")
	add(a, "obs.sinks_us_per_op", ratioOf(float64(a.recordNs-a.walRecordNs)/1e3, ops[a]), "us")
	add(a, "obs.wal_encode_us_per_op", ratioOf(float64(a.walRecordNs)/1e3, ops[a]), "us")
	a = pick(func(a *layerAgg) bool { return len(a.syncUs) > 0 })
	add(a, "obs.wal_sync_us", median(a.syncUs), "us")
	add(a, "obs.syncs_per_op", ratioOf(float64(len(a.syncUs)), ops[a]), "count")
	a = pick(func(a *layerAgg) bool { return len(a.read) > 0 })
	add(a, "recovery.read_s", median(a.read), "s")
	add(a, "recovery.rebuild_s", median(a.rebuild), "s")
	add(a, "recovery.verify_s", median(a.verify), "s")
	add(a, "api.boot_s", median(a.boot), "s")
	u, n := base.phase.usage, costOps(base)
	add(nil, "runtime.cpu_us_per_op", ratioOf(float64(u.cpu.Microseconds()), n), "us")
	add(nil, "runtime.alloc_bytes_per_op", ratioOf(float64(u.allocBytes), n), "B")
	add(nil, "runtime.allocs_per_op", ratioOf(float64(u.allocs), n), "count")
	return ms, srcs
}

func ratioOf(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mutations returns the phase's admission and departure handler records.
func mutations(a *layerAgg) []handlerRec {
	var out []handlerRec
	for _, h := range a.handlers {
		if isMutation(h.route) {
			out = append(out, h)
		}
	}
	return out
}

// handlerAndTransport returns, per mutation request, the time inside
// ctrl.Handler() and the client round trip minus that time, in µs.
func handlerAndTransport(a *layerAgg) (handler, transport []float64) {
	rt := make(map[int64]int64, len(a.clients))
	for _, c := range a.clients {
		rt[c.seq] = c.rtNs
	}
	for _, h := range mutations(a) {
		handler = append(handler, float64(h.ns)/1e3)
		if r, ok := rt[h.seq]; ok {
			transport = append(transport, float64(r-h.ns)/1e3)
		}
	}
	return handler, transport
}

func (r *traceReport) print(w io.Writer) {
	printMetrics(w, "per-layer", r.layers)
	fmt.Fprintln(w, "per-layer sources:")
	for i, m := range r.layers {
		fmt.Fprintf(w, "  %-28s %s\n", m.name, r.sources[i])
	}
	r.printRoutes(w)
	r.printReconciliation(w)
	r.printOverhead(w)
	stored, dropped := r.tr.spanCounts()
	fmt.Fprintf(w, "span file: %s (%d spans kept, %d dropped past the in-memory bounds)\n",
		r.spanFile, stored, dropped)
}

// printRoutes prints the handler p50 by route for both phases.
func (r *traceReport) printRoutes(w io.Writer) {
	fmt.Fprintln(w, "api.handler_us p50 by route:")
	for i, name := range []string{"set-up", "measured"} {
		by := map[string][]float64{}
		for _, h := range r.tr.aggs[i].handlers {
			by[h.route] = append(by[h.route], float64(h.ns)/1e3)
		}
		routes := make([]string, 0, len(by))
		for rt := range by {
			routes = append(routes, rt)
		}
		sort.Strings(routes)
		for _, rt := range routes {
			fmt.Fprintf(w, "  %-8s %-14s %10.2f us over %d requests\n", name, rt, median(by[rt]), len(by[rt]))
		}
	}
}

// printReconciliation compares each layer total against the enclosing
// time it should explain, and prints the share left unexplained.
func (r *traceReport) printReconciliation(w io.Writer) {
	fmt.Fprintln(w, "reconciliation:")
	owner := r.tr.requestOwner()
	for i, name := range []string{"set-up", "measured"} {
		a := &r.tr.aggs[i]
		pipe := map[int64]int64{} // request → its items' longest pipeline span
		var engineNs int64
		for _, s := range a.pipeline {
			engineNs += s.engNs
			if seq, ok := owner(reqAdmit, s.tenant); ok && s.totalNs > pipe[seq] {
				pipe[seq] = s.totalNs
			}
		}
		var handler, covered int64
		matched := 0
		for _, h := range a.handlers {
			if p, ok := pipe[h.seq]; ok && (h.route == "place" || h.route == "place_batch") {
				handler += h.ns
				covered += p
				matched++
			}
		}
		if matched > 0 {
			fmt.Fprintf(w, "  %-8s admissions: %d requests, handler %.0f us, pipeline span total %.0f us; unexplained by the span stages (decode, validation, encode): %.1f%%\n",
				name, matched, float64(handler)/1e3/float64(matched), float64(covered)/1e3/float64(matched),
				100*float64(handler-covered)/float64(handler))
		}
		if e := a.engine[0]; engineNs > 0 {
			fmt.Fprintf(w, "  %-8s engine: core.place wrapper %.0f us of the pipeline's engine stage %.0f us; unexplained: %.1f%%\n",
				name, float64(e.total)/1e3, float64(engineNs)/1e3, 100*float64(engineNs-e.total)/float64(engineNs))
		}
		if e := a.engine[0]; e.total > 0 && a.recordNs > 0 {
			fmt.Fprintf(w, "  %-8s core.place: self %.1f%%, recorder chain %.1f%% (of which the log's Record %.1f%%)\n",
				name, 100*float64(e.total-e.nested)/float64(e.total), 100*float64(e.nested)/float64(e.total),
				100*float64(a.walRecordNs)/float64(a.recordNs))
		}
	}
	if ff := r.tr.fromFile; len(ff) > 0 {
		// Boot i's steps pair with the FromFile timed just before it.
		a := &r.tr.aggs[inMeasured]
		parts, unexplained := make([]float64, len(ff)), make([]float64, len(ff))
		for i, ref := range ff {
			parts[i] = a.read[i] + a.rebuild[i] + a.verify[i]
			unexplained[i] = 100 * (ref - parts[i]) / ref
		}
		fmt.Fprintf(w, "  recovery: read+rebuild+verify %.4f s against recovery.FromFile %.4f s (medians of %d paired boots); unexplained: %.1f%% (median per pair)\n",
			median(parts), median(ff), len(ff), median(unexplained))
	}
}

// printOverhead compares the traced pass against the untraced one.
func (r *traceReport) printOverhead(w io.Writer) {
	u, t := r.untraced.phase, r.traced.phase
	if r.untraced.p.phase == phaseRestart {
		fmt.Fprintf(w, "tracing overhead: recover_s untraced %.4f s, traced %.4f s (traced/untraced %.3f)\n",
			median(u.lat)/1e3, median(t.lat)/1e3, median(t.lat)/median(u.lat))
		return
	}
	ut, tt := float64(u.ops)/u.elapsed.Seconds(), float64(t.ops)/t.elapsed.Seconds()
	fmt.Fprintf(w, "tracing overhead: ops_tps untraced %.1f, traced %.1f (traced/untraced %.3f)\n", ut, tt, tt/ut)
}
