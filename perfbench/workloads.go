package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cubefit/internal/packing"
	"cubefit/internal/ratio"
	"cubefit/internal/rng"
	"cubefit/internal/stats"
	"cubefit/internal/workload"
)

// params fixes one workload's shape. Only the seed varies between runs,
// so every set-up does the same amount of work.
type params struct {
	name string
	why  string
	// conns is the number of closed-loop connections in the measured phase.
	conns int
	// batch is the tenants per admission request in the measured phase
	// (1 selects POST /v1/tenants).
	batch int
	// preload tenants are admitted in set-up, preloadBatch per request
	// from one connection, and departFrac of them then depart one by one.
	preload    int
	departFrac float64
	dist       func() (workload.Distribution, error)
	phase      phaseKind
	// growPerSecond sizes a grow phase: it admits growPerSecond tenants
	// per second of --seconds, a fixed amount of work that takes about
	// --seconds at the rate measured when the benchmark was defined. The
	// fleet it ends with, and the heap and per-commit work that follow
	// the fleet's size, then do not depend on throughput.
	growPerSecond int
	// requests, when positive, ends each connection's measured loop after
	// that many iterations instead of after --seconds, so every run issues
	// the same operations. A grow phase derives it from growPerSecond.
	requests int
}

type phaseKind uint8

const (
	phaseGrow phaseKind = iota
	phaseChurn
	phaseRestart
)

// preloadBatch is the request size of every set-up admission.
const preloadBatch = 64

func uniformClients() (workload.Distribution, error) { return workload.NewUniform(1, 15) }
func zipfClients() (workload.Distribution, error)    { return workload.NewZipf(3, 52) }

var workloads = []params{
	{
		name: "batch-grow", phase: phaseGrow, conns: 2, batch: 64,
		preload: 20000, departFrac: 0.1, dist: uniformClients, growPerSecond: 12000,
		why: "64-tenant batches over 2 connections grow a uniform(1..15) fleet by a fixed 240k tenants: per-tenant engine, log-encode and group-commit cost, the headline durable configuration",
	},
	{
		name: "single-churn", phase: phaseChurn, conns: 2, batch: 1,
		preload: 100000, dist: zipfClients,
		why: "single admissions alternate with departures on a steady ~100k-tenant zipf fleet: per-request HTTP and handler cost, one commit per op, fleet-sized work per commit",
	},
	{
		name: "restart", phase: phaseRestart, conns: 1, batch: preloadBatch,
		preload: 10000, departFrac: 0.1, dist: uniformClients,
		why: "repeated boots from a 10k-tenant log with departures: the read side of the log (decode, rebuild, verify) with no HTTP load, no fsync and no placer",
	},
}

// runStart is when the process started. A phase bounded by its number
// of requests must end within runLimit of it, so a run that has become
// too slow for the benchmark's time budget fails instead of hanging.
var runStart = wallNow()

const runLimit = 160 * time.Second

// sized returns p with its measured phase sized for the given seconds.
func (p params) sized(seconds int) params {
	if p.phase == phaseGrow && p.requests == 0 {
		p.requests = p.growPerSecond * seconds / (p.conns * p.batch)
	}
	return p
}

// measuredWork describes what the measured phase of p.sized(seconds) does.
func (p params) measuredWork(seconds int) string {
	switch {
	case p.phase == phaseRestart:
		return fmt.Sprintf("boots from the set-up log for %d s", seconds)
	case p.requests > 0:
		return fmt.Sprintf("%d requests per connection (%d tenant admissions, sized at %d per second of --seconds)",
			p.requests, p.requests*p.conns*p.batch, p.growPerSecond)
	default:
		return fmt.Sprintf("closed loop for %d s", seconds)
	}
}

func lookupWorkload(name string) (params, error) {
	for _, p := range workloads {
		if p.name == name {
			return p, nil
		}
	}
	names := make([]string, len(workloads))
	for i, p := range workloads {
		names[i] = p.name
	}
	return params{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// streams are the seeded random sources of one run. Set-up and every
// connection draw from their own stream, so a connection's operations
// depend only on the seed, not on how the connections interleave.
type streams struct {
	preload, depart *rng.RNG
	conn            []*rng.RNG
}

func newStreams(seed uint64, conns int) streams {
	master := rng.New(seed)
	s := streams{preload: master.Split(), depart: master.Split()}
	for c := 0; c < conns; c++ {
		s.conn = append(s.conn, master.Split())
	}
	return s
}

var loadModel = workload.DefaultLoadModel()

func newTenant(id int, dist workload.Distribution, r *rng.RNG) packing.Tenant {
	c := dist.Sample(r)
	return packing.Tenant{ID: packing.TenantID(id), Load: loadModel.Load(c), Clients: c}
}

// fleet is what a set-up leaves for the measured phase.
type fleet struct {
	wal *walFile
	svc *service // nil once a restart set-up has closed it
	cl  *client
	// live holds the tenants alive after set-up, ascending by id.
	live []packing.Tenant
	// ops counts the operations set-up had acked: admissions plus
	// departures.
	ops int
	// acked is the service state set-up ended with.
	acked serviceStats
	dur   time.Duration
}

func (f *fleet) release() error {
	var err error
	if f.svc != nil {
		err = f.svc.close()
		f.cl.closeIdle()
	}
	return errors.Join(err, f.wal.release())
}

// setUp boots a service on a fresh log, admits the preload from one
// connection, departs a seeded share of it, opens the measured phase's
// connections and forces a GC. A restart set-up then closes the service
// cleanly, leaving only the log.
func setUp(p params, seed uint64, tr *tracer) (f *fleet, err error) {
	start := wallNow()
	tr.setPhase(inSetup)
	dist, err := p.dist()
	if err != nil {
		return nil, err
	}
	rs := newStreams(seed, p.conns)
	wal, err := newWALFile()
	if err != nil {
		return nil, fmt.Errorf("wal file: %w", err)
	}
	f = &fleet{wal: wal}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.release())
		}
	}()
	if f.svc, err = boot(wal.path, tr); err != nil {
		return f, err
	}
	f.cl = newClient(f.svc.url, p.conns, tr)
	live := make([]packing.Tenant, p.preload)
	for i := range live {
		live[i] = newTenant(i, dist, rs.preload)
	}
	var body []byte
	var buf bytes.Buffer
	for lo := 0; lo < len(live); lo += preloadBatch {
		if body, _, err = f.cl.admitBatch(live[lo:min(lo+preloadBatch, len(live))], body, &buf); err != nil {
			return f, fmt.Errorf("preload: %w", err)
		}
	}
	f.ops = len(live)
	if n := int(p.departFrac * float64(len(live))); n > 0 {
		gone := make([]bool, len(live))
		for _, i := range rs.depart.Perm(len(live))[:n] {
			if _, err = f.cl.depart(live[i].ID, &buf); err != nil {
				return f, fmt.Errorf("set-up departure: %w", err)
			}
			gone[i] = true
		}
		kept := live[:0]
		for i, t := range live {
			if !gone[i] {
				kept = append(kept, t)
			}
		}
		live = kept
		f.ops += n
	}
	f.live = live
	if f.acked, err = checkState(f.cl, len(live)); err != nil {
		return f, fmt.Errorf("after set-up: %w", err)
	}
	if p.phase == phaseRestart {
		err = f.svc.close()
		f.svc = nil
		f.cl.closeIdle()
		if err != nil {
			return f, fmt.Errorf("closing set-up service: %w", err)
		}
	} else if err = warm(f.cl, p.conns); err != nil {
		return f, err
	}
	runtime.GC()
	f.dur = wallNow().Sub(start)
	return f, nil
}

// warm opens the measured phase's connections before it starts.
func warm(cl *client, conns int) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4 && errs[c] == nil; i++ {
				_, errs[c] = cl.stats()
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkState is the end-of-phase gate: the placement must be robust and
// the service must hold exactly the tenants the client saw acked.
func checkState(cl *client, wantTenants int) (serviceStats, error) {
	if err := cl.validate(); err != nil {
		return serviceStats{}, err
	}
	st, err := cl.stats()
	if err != nil {
		return st, err
	}
	if st.Tenants != wantTenants {
		return st, fmt.Errorf("service holds %d tenants, client saw %d acked", st.Tenants, wantTenants)
	}
	return st, nil
}

// phaseResult is one measured phase.
type phaseResult struct {
	// lat holds one latency per operation, in ms: a request on the
	// closed-loop workloads, boot-to-ready on restart.
	lat []float64
	// ops counts acked tenant operations; a batch of 64 counts 64 and a
	// departure counts 1. On restart it is the boots.
	ops     int
	elapsed time.Duration
	// live holds the tenants alive at the end of the phase.
	live  []packing.Tenant
	state serviceStats
	// walBytes is the log growth over the phase (restart: the log size).
	walBytes int64
	// loggedOps is the operations in the log a restart boots from.
	loggedOps int
	heapMB    float64
	usage     usage
}

// usage is the process cost of a measured phase.
type usage struct {
	cpu          time.Duration
	allocBytes   uint64
	allocs       uint64
	startedAt    time.Time
	rusageBefore syscall.Rusage
	memBefore    runtime.MemStats
}

func (u *usage) start() {
	runtime.ReadMemStats(&u.memBefore)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &u.rusageBefore)
	u.startedAt = wallNow()
}

func (u *usage) stop() time.Duration {
	elapsed := wallNow().Sub(u.startedAt)
	var ru syscall.Rusage
	var ms runtime.MemStats
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	runtime.ReadMemStats(&ms)
	cpu := func(r *syscall.Rusage) time.Duration {
		return time.Duration(r.Utime.Nano() + r.Stime.Nano())
	}
	u.cpu = cpu(&ru) - cpu(&u.rusageBefore)
	u.allocBytes = ms.TotalAlloc - u.memBefore.TotalAlloc
	u.allocs = ms.Mallocs - u.memBefore.Mallocs
	return elapsed
}

// liveHeapMB forces a GC and reports the heap still in use, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// measure runs the measured phase of p on the set-up fleet for d.
func measure(p params, f *fleet, seed uint64, d time.Duration, tr *tracer) (*phaseResult, error) {
	tr.setPhase(inMeasured)
	if p.phase == phaseRestart {
		return measureRestart(f, d, tr)
	}
	dist, err := p.dist()
	if err != nil {
		return nil, err
	}
	rs := newStreams(seed, p.conns)
	walBefore, err := f.wal.size()
	if err != nil {
		return nil, err
	}
	type connState struct {
		lat  []float64
		ops  int
		live []packing.Tenant
		err  error
	}
	conns := make([]connState, p.conns)
	if p.phase == phaseChurn {
		// Each connection departs only tenants it owns: its share of the
		// preload and what it admitted itself.
		for _, t := range f.live {
			c := int(t.ID) % p.conns
			conns[c].live = append(conns[c].live, t)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var res phaseResult
	res.usage.start()
	deadline := res.usage.startedAt.Add(d)
	if p.requests > 0 {
		deadline = runStart.Add(runLimit)
	}
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st, r := &conns[c], rs.conn[c]
			var body []byte
			var buf bytes.Buffer
			ts := make([]packing.Tenant, p.batch)
			for k := 0; !stop.Load() && (p.requests == 0 || k < p.requests); k++ {
				if !wallNow().Before(deadline) {
					if p.requests > 0 {
						st.err = fmt.Errorf("measured phase: %d of %d requests done when the run reached its %s limit",
							k, p.requests, runLimit)
					}
					break
				}
				var rt int64
				if p.phase == phaseGrow {
					base := p.preload + (k*p.conns+c)*p.batch
					for j := range ts {
						ts[j] = newTenant(base+j, dist, r)
					}
					body, rt, st.err = f.cl.admitBatch(ts, body, &buf)
					if st.err != nil {
						break
					}
					st.lat = append(st.lat, float64(rt)/1e6)
					st.live = append(st.live, ts...)
					st.ops += len(ts)
					continue
				}
				t := newTenant(p.preload+k*p.conns+c, dist, r)
				if body, rt, st.err = f.cl.admit(t, body, &buf); st.err != nil {
					break
				}
				st.lat = append(st.lat, float64(rt)/1e6)
				st.live = append(st.live, t)
				i := r.Intn(len(st.live))
				gone := st.live[i].ID
				st.live[i] = st.live[len(st.live)-1]
				st.live = st.live[:len(st.live)-1]
				if rt, st.err = f.cl.depart(gone, &buf); st.err != nil {
					break
				}
				st.lat = append(st.lat, float64(rt)/1e6)
				st.ops += 2
			}
			if st.err != nil {
				stop.Store(true)
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = res.usage.stop()
	if p.phase == phaseGrow {
		res.live = append(res.live, f.live...)
	}
	for _, st := range conns {
		if st.err != nil {
			return nil, st.err
		}
		res.lat = append(res.lat, st.lat...)
		res.ops += st.ops
		res.live = append(res.live, st.live...)
	}
	tr.setPhase(inCheck)
	if res.state, err = checkState(f.cl, len(res.live)); err != nil {
		return nil, fmt.Errorf("after measured phase: %w", err)
	}
	walAfter, err := f.wal.size()
	if err != nil {
		return nil, err
	}
	res.walBytes = walAfter - walBefore
	res.heapMB = liveHeapMB()
	return &res, nil
}

// measureRestart boots from the set-up log until d has passed, at least
// once. A boot is ready when GET /v1/stats returns the state set-up acked.
func measureRestart(f *fleet, d time.Duration, tr *tracer) (*phaseResult, error) {
	size, err := f.wal.size()
	if err != nil {
		return nil, err
	}
	res := phaseResult{live: f.live, walBytes: size, loggedOps: f.ops}
	res.usage.start()
	for {
		if tr != nil {
			// The reference for the recovery reconciliation: the same log
			// through recovery.FromFile itself, right before the traced boot.
			if err := tr.timeFromFile(f.wal.path); err != nil {
				return nil, err
			}
		}
		t0 := wallNow()
		svc, err := boot(f.wal.path, tr)
		if err != nil {
			return nil, err
		}
		cl := newClient(svc.url, 1, tr)
		st, err := cl.stats()
		ready := wallNow().Sub(t0)
		if err == nil && st != f.acked {
			err = fmt.Errorf("recovered %+v, set-up acked %+v", st, f.acked)
		}
		res.lat = append(res.lat, float64(ready.Nanoseconds())/1e6)
		res.ops++
		last := err != nil || wallNow().Sub(res.usage.startedAt) >= d
		if last {
			res.elapsed = res.usage.stop()
			tr.setPhase(inCheck)
			if err == nil {
				res.state, err = checkState(cl, len(f.live))
			}
			if err == nil {
				res.heapMB = liveHeapMB()
			}
		}
		err = errors.Join(err, svc.close())
		cl.closeIdle()
		if err != nil {
			return nil, err
		}
		if after, serr := f.wal.size(); serr != nil || after != size {
			return nil, errors.Join(serr, fmt.Errorf("boot changed the log from %d to %d bytes", size, after))
		}
		if last {
			return &res, nil
		}
	}
}

// result is one workload run: the median set-up and its measured phase.
type result struct {
	p      params
	setups []float64 // seconds
	// setupOps is the operations the kept set-up acked.
	setupOps int
	phase    *phaseResult
	lowerLB  int
}

// runWorkload sets p up `setups` times, keeping the last fleet, and
// measures once on it.
func runWorkload(p params, seed uint64, d time.Duration, setups int, tr *tracer) (*result, error) {
	res := &result{p: p}
	var f *fleet
	for i := 0; i < setups; i++ {
		var err error
		if f, err = setUp(p, seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, f.dur.Seconds())
		res.setupOps = f.ops
		if i < setups-1 {
			if err := f.release(); err != nil {
				return nil, err
			}
		}
	}
	ph, err := measure(p, f, seed, d, tr)
	err = errors.Join(err, f.release())
	if err != nil {
		return nil, err
	}
	res.phase = ph
	res.lowerLB = ratio.LowerBoundServers(ph.live, engineConfig.Gamma)
	if res.lowerLB == 0 {
		return nil, errors.New("degenerate lower bound")
	}
	return res, nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is stats.Percentile with 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// endToEnd computes the end-to-end metrics of one run.
func (r *result) endToEnd() []metric {
	ph := r.phase
	opsTPS := float64(ph.ops) / ph.elapsed.Seconds()
	walPerOp := float64(ph.walBytes) / float64(ph.ops)
	if r.p.phase == phaseRestart {
		// A boot replays every logged operation: the rate is the log's
		// operations over the median boot.
		opsTPS = float64(ph.loggedOps) / (median(ph.lat) / 1e3)
		walPerOp = float64(ph.walBytes) / float64(ph.loggedOps)
	}
	return []metric{
		{"ops_tps", opsTPS, "ops/s"},
		{"p50_ms", median(ph.lat), "ms"},
		{"p99_ms", percentile(ph.lat, 99), "ms"},
		{"setup_s", median(r.setups), "s"},
		{"servers_per_lb", float64(ph.state.UsedServers) / float64(r.lowerLB), "ratio"},
		{"wal_bytes_per_op", walPerOp, "B"},
		{"live_heap_mb", ph.heapMB, "MB"},
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}
