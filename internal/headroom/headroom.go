// Package headroom is the robustness headroom auditor: an incrementally
// maintained view of how close every server sits to overload under the
// worst-case failover the paper's invariant protects against.
//
// For each server Si the auditor tracks the slack
//
//	1 − (|Si| + top-(γ−1) Σ_{Sj} |Si ∩ Sj|)
//
// together with the arg-max failure set — the γ−1 peers whose
// simultaneous failure would redirect the most load onto Si. A placement
// is robust exactly when every slack is non-negative (within
// packing.CapacityEps), so the minimum slack is the live safety margin of
// the whole placement and a server whose slack goes negative is the
// first overload-on-failure witness.
//
// The auditor never rescans the placement. It learns which servers a
// mutation touched from the decision event stream of internal/obs, in
// one of two ways. Attached to an engine as its Recorder, it marks on
// each placement-shaped event the event's server plus the tenant's other
// hosts, the only servers whose pairwise intersections can have changed.
// An owner that delivers a mutation's events after the engine call (the
// api controller) calls MarkPlaced with them instead, and MarkTenant for
// a tenant it is about to remove. Marked servers wait in a dirty set, and
// their entries are recomputed lazily, O(changed servers) per mutation,
// when a reading method drains the queue. Exhaustive is the full-rescan
// reference implementation the property tests and benchmarks compare
// against.
//
// The package is deliberately wall-clock free (time enters only through
// event replay, see replay.go) and uses the shared tolerance constants of
// internal/packing for every capacity comparison.
package headroom

import (
	"fmt"
	"sort"
	"sync"

	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/stats"
)

// DefaultRedLine is the default slack threshold below which a server is
// counted as red-lined: 0.05 means less than 5% of a server's capacity
// stands between the worst-case failover and an overload.
const DefaultRedLine = 0.05

// Entry is the audited state of one server.
type Entry struct {
	Server int `json:"server"`
	// Level is the direct replica load |Si|.
	Level float64 `json:"level"`
	// Reserve is the worst-case redirected load: the sum of the γ−1
	// largest pairwise intersections |Si ∩ Sj|.
	Reserve float64 `json:"reserve"`
	// Slack is 1 − Level − Reserve: the capacity left under the worst
	// failure set. Negative slack (beyond tolerance) means the server
	// would overload if WorstSet failed simultaneously.
	Slack float64 `json:"slack"`
	// WorstSet is the arg-max failure set: the peers realizing Reserve,
	// by decreasing shared load (ties: ascending ID). It holds fewer than
	// γ−1 entries when the server shares load with fewer peers.
	WorstSet []int `json:"worstSet"`
	// Overloaded reports Level+Reserve beyond unit capacity (tolerance
	// included): the robustness invariant is violated for this server.
	Overloaded bool `json:"overloaded"`
}

// Report is a consistent audit of the whole placement.
type Report struct {
	Gamma   int     `json:"gamma"`
	RedLine float64 `json:"redline"`
	// Servers holds one entry per opened server, in server-ID order.
	Servers []Entry `json:"servers"`
	// MinServer is the server with the least slack (lowest ID on ties),
	// or -1 when no server is open; MinSlack is its slack (1 — the full
	// unit capacity — when no server is open).
	MinServer int     `json:"minServer"`
	MinSlack  float64 `json:"minSlack"`
	// P50Slack is the median slack across opened servers (1 when none).
	P50Slack float64 `json:"p50Slack"`
	// BelowRedLine counts servers with slack below the red line.
	BelowRedLine int `json:"belowRedLine"`
	// Overloaded counts servers violating the robustness invariant.
	Overloaded int `json:"overloaded"`
}

// Auditor incrementally audits one placement. It is safe for concurrent
// use: all methods serialize on an internal mutex, so it can be read
// (Min, Entry, Report) by HTTP handlers while an engine under its own
// lock feeds it events.
type Auditor struct {
	mu      sync.Mutex
	p       *packing.Placement
	redline float64

	entries []Entry
	// dirty queues server IDs whose cached entry is stale; inDirty
	// deduplicates the queue.
	dirty   []int
	inDirty []bool

	below      int
	overloaded int
	// overloadEvents counts transitions of a server into the overloaded
	// state — the monotone overload-on-failure counter.
	overloadEvents uint64

	// minServer is the cached arg-min of slack; minValid is false when
	// the cache may be stale (the arg-min entry itself changed).
	minServer int
	minValid  bool

	// scratch is reused by Summary for the median selection.
	scratch []float64
	// hostBuf receives a tenant's hosts in markTenant.
	hostBuf []int
}

// New creates an auditor over the placement with the given red-line
// threshold (<= 0 selects DefaultRedLine). Servers already open are
// queued for audit immediately, so attaching to a non-empty placement is
// valid.
func New(p *packing.Placement, redline float64) *Auditor {
	if redline <= 0 {
		redline = DefaultRedLine
	}
	a := &Auditor{p: p, redline: redline, minServer: -1}
	a.mu.Lock()
	a.syncLocked()
	a.mu.Unlock()
	return a
}

// RedLine returns the configured slack threshold.
func (a *Auditor) RedLine() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.redline
}

// SetRedLine changes the slack threshold (<= 0 selects DefaultRedLine)
// and recounts the red-lined servers.
func (a *Auditor) SetRedLine(redline float64) {
	if redline <= 0 {
		redline = DefaultRedLine
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	a.redline = redline
	a.below = 0
	for i := range a.entries {
		if a.entries[i].Slack < redline {
			a.below++
		}
	}
}

// Record implements obs.Recorder: placement-shaped events mark the
// touched servers dirty. Recomputation is deferred to the next reading
// method, so a γ-replica admission costs γ dirty marks per event, not γ
// audits per event.
func (a *Auditor) Record(e obs.Event) {
	switch e.Kind {
	case obs.KindPlace, obs.KindStage1Place, obs.KindCubePlace:
		// A replica landed on e.Server: intersections changed pairwise
		// between it and the tenant's other hosts (all current hosts are
		// dirty; e.Server is among them by the time the event fires).
		a.markTenant(e.Tenant, e.Server)
	case obs.KindRollback, obs.KindDepart:
		// Both fire before the engine unwinds the tenant, so the hosts
		// about to lose replicas are still recorded in the placement.
		a.markTenant(e.Tenant, obs.Unset)
	case obs.KindBinOpen:
		a.mu.Lock()
		a.markLocked(e.Server)
		a.mu.Unlock()
	}
}

// MarkPlaced queues, for re-audit, the server of every place-shaped and
// bin_open event of a finished mutation: the servers it placed a replica
// on or opened. An owner that delivers a mutation's events after the
// engine call uses it instead of Record. Unlike Record it reads no
// tenant's hosts, so it is correct after the mutation provided the hosts
// of every tenant the mutation removed were marked with MarkTenant before
// the removal. A rolled-back replica's server is covered by the place
// event that put it there.
func (a *Auditor) MarkPlaced(events []obs.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range events {
		switch events[i].Kind {
		case obs.KindPlace, obs.KindStage1Place, obs.KindCubePlace, obs.KindBinOpen:
			a.markLocked(events[i].Server)
		}
	}
}

// MarkTenant queues every current host of the tenant for re-audit. Call
// it before removing the tenant: afterwards the placement no longer
// names its hosts.
func (a *Auditor) MarkTenant(id packing.TenantID) {
	a.markTenant(int(id), obs.Unset)
}

// markTenant marks every current host of the tenant dirty, plus extra
// (ignored when Unset).
func (a *Auditor) markTenant(tenant, extra int) {
	a.mu.Lock()
	a.hostBuf = a.p.TenantHostsInto(packing.TenantID(tenant), a.hostBuf)
	if extra != obs.Unset {
		a.markLocked(extra)
	}
	for _, h := range a.hostBuf {
		if h >= 0 {
			a.markLocked(h)
		}
	}
	a.mu.Unlock()
}

// MarkDirty queues servers for re-audit. Engines without an event stream
// can use it as a direct hook; out-of-range IDs are rejected.
func (a *Auditor) MarkDirty(servers ...int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sid := range servers {
		if sid < 0 || sid >= a.p.NumServers() {
			return fmt.Errorf("headroom: no server %d", sid)
		}
		a.markLocked(sid)
	}
	return nil
}

// Sync queues every opened server for re-audit — the full-rescan escape
// hatch for placements mutated outside the event seam.
func (a *Auditor) Sync() {
	a.mu.Lock()
	a.syncLocked()
	a.mu.Unlock()
}

func (a *Auditor) syncLocked() {
	for sid := 0; sid < a.p.NumServers(); sid++ {
		a.markLocked(sid)
	}
}

// markLocked queues one server, growing the entry table as servers open.
func (a *Auditor) markLocked(sid int) {
	if sid < 0 {
		return
	}
	for len(a.entries) <= sid {
		id := len(a.entries)
		// A fresh server starts empty: full slack, no failure set. The
		// audited fields are filled in by the queued recompute.
		a.entries = append(a.entries, Entry{Server: id, Slack: 1})
		a.inDirty = append(a.inDirty, false)
		if a.entries[id].Slack < a.redline {
			a.below++
		}
	}
	if !a.inDirty[sid] {
		a.inDirty[sid] = true
		a.dirty = append(a.dirty, sid)
	}
}

// drainLocked recomputes every queued entry and maintains the aggregate
// counters. Cost: O(dirty servers × their shared peers).
func (a *Auditor) drainLocked() {
	if len(a.dirty) == 0 {
		return
	}
	k := a.p.Gamma() - 1
	for _, sid := range a.dirty {
		a.inDirty[sid] = false
		old := a.entries[sid]
		srv := a.p.Server(sid)
		// The old set's backing array is reused: every reader of an entry
		// gets a clone (cloneEntry), so no caller holds it.
		reserve, worst := srv.TopSharedSet(k, old.WorstSet)
		level := srv.Level()
		e := Entry{
			Server:     sid,
			Level:      level,
			Reserve:    reserve,
			Slack:      1 - level - reserve,
			WorstSet:   worst,
			Overloaded: !packing.WithinCapacity(level + reserve),
		}
		a.entries[sid] = e

		if old.Slack < a.redline {
			a.below--
		}
		if e.Slack < a.redline {
			a.below++
		}
		if old.Overloaded != e.Overloaded {
			if e.Overloaded {
				a.overloaded++
				a.overloadEvents++
			} else {
				a.overloaded--
			}
		}
		// Min maintenance: a lower slack takes over directly; a change to
		// the current arg-min invalidates it (its slack may have risen).
		if a.minValid {
			cur := a.entries[a.minServer].Slack
			if sid == a.minServer {
				a.minValid = false
			} else if e.Slack < cur ||
				//cubefit:vet-allow floatcmp -- exact tie-break keeps the arg-min the lowest server ID
				(e.Slack == cur && sid < a.minServer) {
				a.minServer = sid
			}
		}
	}
	a.dirty = a.dirty[:0]
}

// minLocked returns the arg-min entry, rescanning the cached entries only
// when the previous arg-min was invalidated.
func (a *Auditor) minLocked() (Entry, bool) {
	if len(a.entries) == 0 {
		return Entry{Server: -1, Slack: 1}, false
	}
	if !a.minValid {
		min := 0
		for i := 1; i < len(a.entries); i++ {
			if a.entries[i].Slack < a.entries[min].Slack {
				min = i
			}
		}
		a.minServer = min
		a.minValid = true
	}
	return a.entries[a.minServer], true
}

// Min returns the entry with the least slack — the placement's live
// safety margin. ok is false when no server has been opened (the entry
// then reports full slack on server -1).
func (a *Auditor) Min() (e Entry, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	e, ok = a.minLocked()
	return cloneEntry(e), ok
}

// Entry returns the audited state of one server.
func (a *Auditor) Entry(server int) (Entry, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	if server < 0 || server >= len(a.entries) {
		return Entry{}, false
	}
	return cloneEntry(a.entries[server]), true
}

// Aggregates returns the live counters without materializing a report:
// the minimum entry, the red-lined server count, the currently overloaded
// server count, and the monotone overload-on-failure event total.
func (a *Auditor) Aggregates() (min Entry, below, overloaded int, overloadEvents uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	min, _ = a.minLocked()
	return cloneEntry(min), a.below, a.overloaded, a.overloadEvents
}

// Summary is the aggregate slice of a Report: the gauges the service
// layer exports when they are scraped, without the per-server entries.
type Summary struct {
	MinServer      int
	MinSlack       float64
	P50Slack       float64
	RedLine        float64
	BelowRedLine   int
	Overloaded     int
	OverloadEvents uint64
}

// Summary returns the placement-wide aggregates without materializing or
// cloning per-server entries. The median runs over a reused scratch
// buffer with an O(n) selection, so calling it once per scrape stays off
// the allocation profile (unlike Report, which builds the full
// per-server view).
func (a *Auditor) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	return a.summaryLocked()
}

// Drain re-audits every queued server now, O(queued servers × their
// shared peers). An owner that mutates the placement under its own lock
// calls it under that lock after each mutation, so LastSummary can then
// be read without that lock and every overload transition is counted.
func (a *Auditor) Drain() {
	a.mu.Lock()
	a.drainLocked()
	a.mu.Unlock()
}

// LastSummary is Summary as of the last drain: it reads the audited
// entries only, never the placement, so it is safe while the placement's
// owner is mutating it. Servers queued since the last drain are not yet
// reflected.
func (a *Auditor) LastSummary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.summaryLocked()
}

func (a *Auditor) summaryLocked() Summary {
	s := Summary{
		MinServer:      -1,
		MinSlack:       1,
		P50Slack:       1,
		RedLine:        a.redline,
		BelowRedLine:   a.below,
		Overloaded:     a.overloaded,
		OverloadEvents: a.overloadEvents,
	}
	min, ok := a.minLocked()
	if !ok {
		return s
	}
	s.MinServer = min.Server
	s.MinSlack = min.Slack
	a.scratch = a.scratch[:0]
	for i := range a.entries {
		a.scratch = append(a.scratch, a.entries[i].Slack)
	}
	s.P50Slack = p50InPlace(a.scratch)
	return s
}

// Report audits every queued server and returns the consistent
// placement-wide view.
func (a *Auditor) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	r := Report{
		Gamma:        a.p.Gamma(),
		RedLine:      a.redline,
		Servers:      make([]Entry, len(a.entries)),
		MinServer:    -1,
		MinSlack:     1,
		P50Slack:     1,
		BelowRedLine: a.below,
		Overloaded:   a.overloaded,
	}
	for i := range a.entries {
		r.Servers[i] = cloneEntry(a.entries[i])
	}
	if min, ok := a.minLocked(); ok {
		r.MinServer = min.Server
		r.MinSlack = min.Slack
		r.P50Slack = p50(r.Servers)
	}
	return r
}

// Worst returns the n entries with the least slack, ascending (ties:
// ascending server ID); n <= 0 or n beyond the server count returns all.
func (a *Auditor) Worst(n int) []Entry {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	out := make([]Entry, len(a.entries))
	for i := range a.entries {
		out[i] = cloneEntry(a.entries[i])
	}
	sortBySlack(out)
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// cloneEntry copies an entry so callers cannot alias the cached WorstSet.
func cloneEntry(e Entry) Entry {
	e.WorstSet = append([]int(nil), e.WorstSet...)
	return e
}

// sortBySlack orders entries by ascending slack, ties by ascending ID.
func sortBySlack(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Slack != entries[j].Slack { //cubefit:vet-allow floatcmp -- exact tie-break keeps the order deterministic
			return entries[i].Slack < entries[j].Slack
		}
		return entries[i].Server < entries[j].Server
	})
}

// p50InPlace returns the median with the same tie semantics as p50 but
// via O(n) selection, reordering xs.
func p50InPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	mid := len(xs) / 2
	hi, _ := stats.OrderStatInPlace(xs, mid)
	if len(xs)%2 == 1 {
		return hi
	}
	// After selection, xs[:mid] holds every element at or below the mid
	// order statistic, so its maximum is the (mid−1)-th.
	lo := xs[0]
	for _, v := range xs[1:mid] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// p50 returns the median slack of the entries (1 when empty).
func p50(entries []Entry) float64 {
	if len(entries) == 0 {
		return 1
	}
	slacks := make([]float64, len(entries))
	for i, e := range entries {
		slacks[i] = e.Slack
	}
	sort.Float64s(slacks)
	mid := len(slacks) / 2
	if len(slacks)%2 == 1 {
		return slacks[mid]
	}
	return (slacks[mid-1] + slacks[mid]) / 2
}

// Exhaustive computes the placement's report by full rescan — the
// reference implementation the incremental auditor is benchmarked and
// property-tested against. redline <= 0 selects DefaultRedLine.
func Exhaustive(p *packing.Placement, redline float64) Report {
	if redline <= 0 {
		redline = DefaultRedLine
	}
	k := p.Gamma() - 1
	r := Report{
		Gamma:     p.Gamma(),
		RedLine:   redline,
		Servers:   make([]Entry, 0, p.NumServers()),
		MinServer: -1,
		MinSlack:  1,
		P50Slack:  1,
	}
	for _, srv := range p.Servers() {
		reserve, worst := srv.TopSharedSet(k, nil)
		level := srv.Level()
		e := Entry{
			Server:     srv.ID(),
			Level:      level,
			Reserve:    reserve,
			Slack:      1 - level - reserve,
			WorstSet:   worst,
			Overloaded: !packing.WithinCapacity(level + reserve),
		}
		r.Servers = append(r.Servers, e)
		if e.Slack < redline {
			r.BelowRedLine++
		}
		if e.Overloaded {
			r.Overloaded++
		}
		if r.MinServer == -1 || e.Slack < r.MinSlack {
			r.MinServer = e.Server
			r.MinSlack = e.Slack
		}
	}
	if len(r.Servers) > 0 {
		r.P50Slack = p50(r.Servers)
	}
	return r
}

// TenantShare is one tenant's contribution to a pairwise intersection.
type TenantShare struct {
	Tenant int     `json:"tenant"`
	Size   float64 `json:"size"`
}

// Contribution explains one peer of a server's worst failure set: the
// shared load |Si ∩ Sj| and the tenants whose co-located replicas
// constitute it, in tenant-ID order.
type Contribution struct {
	Peer    int           `json:"peer"`
	Shared  float64       `json:"shared"`
	Tenants []TenantShare `json:"tenants"`
}

// Contributors attributes the shared load between a server and each given
// peer (typically an Entry's WorstSet) to the tenants causing it: the
// replicas on the server whose tenant also has a replica on the peer.
func Contributors(p *packing.Placement, server int, peers []int) ([]Contribution, error) {
	s := p.Server(server)
	if s == nil {
		return nil, fmt.Errorf("headroom: no server %d", server)
	}
	reps := s.Replicas()
	out := make([]Contribution, 0, len(peers))
	for _, peer := range peers {
		ps := p.Server(peer)
		if ps == nil {
			return nil, fmt.Errorf("headroom: no server %d", peer)
		}
		c := Contribution{Peer: peer, Shared: s.SharedWith(peer)}
		for _, r := range reps {
			if ps.Hosts(r.Tenant) {
				c.Tenants = append(c.Tenants, TenantShare{Tenant: int(r.Tenant), Size: r.Size})
			}
		}
		out = append(out, c)
	}
	return out, nil
}
