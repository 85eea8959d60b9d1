package core

import (
	"fmt"

	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// maxCubeSize caps τ^γ so that cube group arrays stay reasonably sized.
const maxCubeSize = 1 << 22

// CubeFit is the paper's online consolidation algorithm. It is not safe
// for concurrent use.
type CubeFit struct {
	cfg Config
	p   *packing.Placement

	// bins[i] describes server i; nil entries cannot occur because every
	// server is opened by CubeFit itself.
	bins []*bin
	// active lists mature bins eligible for the first stage.
	active []*bin
	// index mirrors active in Best-Fit order for the fast-path first stage
	// (see index.go). Maintained by refreshBin/removeActive.
	index fitIndex
	cubes map[cubeKey]*cube

	// cachedReserve enables the incremental reserve-digest fast path for
	// m-fit tests and refreshBin (set in New when γ−1 fits the digests;
	// see reserve.go). When clear, both recompute from the shared loads
	// (topSharedAdjusted / packing.TopShared); the parity tests and
	// benchmarks clear it right after New to use that path as the oracle.
	cachedReserve bool
	// scanFirstStage selects the reference linear scan over all active
	// mature bins (bestMFitScan) instead of the Best-Fit index. Like
	// a cleared cachedReserve it is a test oracle, placement-identical to
	// the fast path; only tests set it, right after New.
	scanFirstStage bool

	// Scratch buffers for the admission hot path. CubeFit is documented as
	// not concurrency-safe, so a single instance of each suffices; they are
	// only ever valid within one Place/Remove call.
	repScratch     []packing.Replica
	hostScratch    []int
	earlierScratch []int

	stats Stats

	// admissionHook, when non-nil, is called after every Place attempt
	// with the path taken (see SetAdmissionHook).
	admissionHook func(AdmissionPath)
	// rec, when non-nil, receives the decision event stream (see
	// SetRecorder). Every emission site is guarded by a nil check so the
	// default costs nothing.
	rec obs.Recorder
	// placeFault, when non-nil, is consulted before each physical replica
	// placement of the second stage; a non-nil return aborts the admission
	// mid-loop. Test seam for the admission-rollback path.
	placeFault func(server int, rep packing.Replica) error
}

// AdmissionPath identifies how Place handled an admission attempt.
type AdmissionPath int

const (
	// AdmitFirstStage: all replicas went into mature bins via Best Fit.
	AdmitFirstStage AdmissionPath = iota
	// AdmitRegular: the cube construction of the tenant's class.
	AdmitRegular
	// AdmitTiny: the class-K tiny policy.
	AdmitTiny
	// AdmitRejected: the admission failed and was rolled back.
	AdmitRejected
	// AdmitPlaced: a single-stage engine (RFI, the naive baselines)
	// admitted the tenant. Those engines have no multi-path structure to
	// attribute, but report through the same hook so the api/metrics
	// layer counts every engine uniformly.
	AdmitPlaced
)

// String returns the snake_case path name (used as a metric label).
func (p AdmissionPath) String() string {
	switch p {
	case AdmitFirstStage:
		return "first_stage"
	case AdmitRegular:
		return "regular"
	case AdmitTiny:
		return "tiny"
	case AdmitRejected:
		return "rejected"
	case AdmitPlaced:
		return "placed"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// SetAdmissionHook registers fn to run synchronously after every Place
// call with the path taken (AdmitRejected on failure). The API layer uses
// it to export admission-outcome metrics without polling Stats. fn runs
// under whatever synchronization guards Place and must not call back into
// the instance.
func (cf *CubeFit) SetAdmissionHook(fn func(AdmissionPath)) { cf.admissionHook = fn }

// engineName labels CubeFit's decision events.
const engineName = "cubefit"

// SetRecorder attaches a decision flight recorder (see internal/obs):
// every subsequent Place and Remove emits its full decision trail to r.
// A nil r detaches the recorder. r.Record runs synchronously under
// whatever synchronization guards Place and must not call back into the
// instance.
func (cf *CubeFit) SetRecorder(r obs.Recorder) { cf.rec = r }

// emit labels and forwards one event built on the caller's stack. Callers
// must guard with `cf.rec != nil` so the default path pays one nil check
// and never builds the event; the recorder gets a copy, so the event
// itself never leaves the stack.
//
//cubefit:hotpath
func (cf *CubeFit) emit(e *obs.Event) {
	e.Engine = engineName
	cf.rec.Record(*e)
}

func (cf *CubeFit) observe(p AdmissionPath) {
	if cf.admissionHook != nil {
		cf.admissionHook(p)
	}
}

// Stats counts which placement path each admitted tenant took.
type Stats struct {
	// FirstStageTenants were fully placed into mature bins by Best Fit.
	FirstStageTenants int
	// RegularTenants went through the cube construction of their class.
	RegularTenants int
	// TinyTenants are class-K tenants placed via the tiny policy.
	TinyTenants int
}

var _ packing.Algorithm = (*CubeFit)(nil)

type cubeKey struct {
	tau  int
	tiny bool
}

// cube is the second-stage state for one class: γ groups of τ^(γ−1) bins
// addressed by a base-τ counter.
type cube struct {
	tau      int
	tiny     bool
	slotSize float64
	cnt      int // current counter value in [0, size)
	size     int // τ^γ
	rowLen   int // τ^(γ−1), bins per group
	groups   [][]int
	digits   []int // scratch: base-τ digits of cnt, most significant first

	// Tiny accumulation (class-K replicas): while open, additional tiny
	// tenants join the slots addressed by cnt until the next replica would
	// not fit, at which point the cursor advances.
	open bool
	fill float64
}

// bin is CubeFit's bookkeeping for one server.
type bin struct {
	server int
	// level and slack cache the hosting server's level and usable slack
	// 1 − level − reserve as of the last refreshBin. refreshBin runs for
	// every server whose level or shared loads changed, so the caches are
	// never stale when the first stage reads them.
	level float64
	slack float64
	// key, leftMax, rightMax, left, right and prio thread the bin through
	// CubeFit.index while it is active (see index.go): the level it is
	// filed under, the largest slack in each child subtree, the children
	// (server IDs, noBin for none) and its priority. They sit next to
	// level and slack, which every tree step reads with them.
	key      float64
	leftMax  float64
	rightMax float64
	left     int32
	right    int32
	prio     uint32

	// tau and tiny name the bin's class; the bin matures once the cube's
	// cursor has closed its tau payload slots. Nothing is kept per slot:
	// the first stage reads the level and reserve, and the tiny
	// accumulation its cube's fill. No bin field holds a pointer
	// (TestBinLayout), so the collector never scans inside a bin.
	tau       int32
	tiny      bool
	closed    int32 // payload slots the cursor has advanced past
	mature    bool
	retired   bool  // mature and permanently removed from active (pruned)
	activeIdx int32 // index in CubeFit.active, or -1
	reserve   float64
	// digest incrementally tracks the server's largest pairwise shared
	// loads (see reserve.go), fed by the packing shared-load hook; the
	// cached m-fit path reads reserves from it instead of scanning the
	// server's shared loads.
	digest topKDigest
}

// New creates a CubeFit instance for the given configuration.
func New(cfg Config) (*CubeFit, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if size, ok := ipow(cfg.K-1, cfg.Gamma); !ok || size > maxCubeSize {
		return nil, fmt.Errorf("core: cube size (K-1)^γ = %d^%d too large", cfg.K-1, cfg.Gamma)
	}
	p, err := packing.NewPlacement(cfg.Gamma)
	if err != nil {
		return nil, err
	}
	cf := &CubeFit{
		cfg:   cfg,
		p:     p,
		index: fitIndex{root: noBin},
		cubes: make(map[cubeKey]*cube),
		// The cached reserve path answers top-(γ−1) queries from the
		// per-bin digests; it needs γ−1 ≤ digestSize to be exact. The
		// digests themselves are maintained unconditionally (the hook
		// below) so the property tests can compare them against
		// packing.TopShared in any mode.
		cachedReserve: cfg.Gamma-1 <= digestSize,
	}
	p.SetSharedHook(cf.sharedChanged)
	return cf, nil
}

// sharedChanged is the packing shared-load hook: it repairs the affected
// server's reserve digest after every pairwise shared-load mutation.
//
//cubefit:hotpath
func (cf *CubeFit) sharedChanged(server, peer int, value float64) {
	// Every server is opened by CubeFit itself (binAt), so the bin exists
	// by the time its shared loads first mutate; the bound check is purely
	// defensive.
	if server >= 0 && server < len(cf.bins) {
		cf.bins[server].digest.update(peer, value, cf.p.Server(server))
	}
}

// Name implements packing.Algorithm.
func (cf *CubeFit) Name() string {
	return fmt.Sprintf("cubefit(γ=%d,k=%d)", cf.cfg.Gamma, cf.cfg.K)
}

// Placement implements packing.Algorithm.
func (cf *CubeFit) Placement() *packing.Placement { return cf.p }

// Config returns the configuration the instance was built with.
func (cf *CubeFit) Config() Config { return cf.cfg }

// Place admits one tenant, placing its γ replicas on γ distinct servers.
// The resulting placement always satisfies the robustness invariant.
//
// Place is atomic: on failure the tenant is fully rolled back — replicas
// already placed are removed, the affected bins' caches are refreshed, and
// the tenant is deregistered — so the placement still validates and the
// same tenant can be re-admitted later.
func (cf *CubeFit) Place(t packing.Tenant) error {
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindAttempt)
		e.Tenant = int(t.ID)
		e.Size = t.Load
		e.Clients = t.Clients
		cf.emit(&e)
	}
	if _, exists := cf.p.Tenant(t.ID); exists {
		err := fmt.Errorf("core: %w: tenant %d already admitted", packing.ErrDuplicateTenant, t.ID)
		cf.reject(t.ID, err)
		return err
	}
	if err := cf.p.AddTenant(t); err != nil {
		cf.reject(t.ID, err)
		return err
	}
	// reps lives in a scratch buffer: it is only read within this call and
	// nothing below retains it.
	reps := cf.p.ReplicasInto(t, cf.repScratch)
	cf.repScratch = reps

	if !cf.cfg.DisableFirstStage && cf.tryFirstStage(t, reps) {
		cf.stats.FirstStageTenants++
		cf.admit(t.ID, AdmitFirstStage)
		return nil
	}

	tau := cf.cfg.ClassOf(reps[0].Size)
	if tau == cf.cfg.K {
		if err := cf.placeTiny(reps); err != nil {
			cf.rollbackAdmission(t.ID, err)
			return err
		}
		cf.stats.TinyTenants++
		cf.admit(t.ID, AdmitTiny)
		return nil
	}
	if err := cf.placeRegular(tau, reps); err != nil {
		cf.rollbackAdmission(t.ID, err)
		return err
	}
	cf.stats.RegularTenants++
	cf.admit(t.ID, AdmitRegular)
	return nil
}

// admit closes a successful admission: the hook fires and the recorder,
// when attached, gets the admit event carrying the path label.
func (cf *CubeFit) admit(id packing.TenantID, path AdmissionPath) {
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindAdmit)
		e.Tenant = int(id)
		e.Path = path.String()
		cf.emit(&e)
	}
	cf.observe(path)
}

// reject closes a failed admission that placed nothing.
func (cf *CubeFit) reject(id packing.TenantID, err error) {
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindReject)
		e.Tenant = int(id)
		e.Path = AdmitRejected.String()
		e.Reason = err.Error()
		cf.emit(&e)
	}
	cf.observe(AdmitRejected)
}

// rollbackAdmission unwinds a partially placed admission and closes it as
// rejected.
func (cf *CubeFit) rollbackAdmission(id packing.TenantID, err error) {
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindRollback)
		e.Tenant = int(id)
		e.Reason = err.Error()
		cf.emit(&e)
	}
	cf.unwind(id)
	cf.reject(id, err)
}

// Stats returns counters describing which placement paths tenants took.
func (cf *CubeFit) Stats() Stats { return cf.stats }

// Remove evicts a tenant and releases its capacity for future arrivals
// (dynamic-departure extension; see DESIGN.md §7). The first stage reuses
// the freed capacity once the bin is mature; the tiny accumulation reads
// only its cube's fill, so a departure does not reopen a closed slot.
func (cf *CubeFit) Remove(id packing.TenantID) error {
	if _, ok := cf.p.Tenant(id); !ok {
		return fmt.Errorf("%w: %d", packing.ErrUnknownTenant, id)
	}
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindDepart)
		e.Tenant = int(id)
		cf.emit(&e)
	}
	cf.unwind(id)
	return nil
}

// unwind evicts a registered tenant, whether fully or partially placed:
// every placed replica is unplaced, the tenant is deregistered, and the
// caches of the affected bins are refreshed. It serves both tenant
// departure (Remove) and the rollback of failed admissions (Place).
func (cf *CubeFit) unwind(id packing.TenantID) {
	if _, ok := cf.p.Tenant(id); !ok {
		return
	}
	hosts := cf.p.TenantHostsInto(id, cf.hostScratch)
	cf.hostScratch = hosts
	// RemoveTenant cannot fail for a registered tenant; every placed
	// replica recorded in its hosts is unplaceable by construction.
	_ = cf.p.RemoveTenant(id)
	for _, h := range hosts {
		if h >= 0 {
			cf.refreshBin(cf.bins[h])
		}
	}
}

// placeRegular runs the second stage for a class-τ tenant (τ < K).
func (cf *CubeFit) placeRegular(tau int, reps []packing.Replica) error {
	cb := cf.cube(tau, false)
	if err := cf.placeAtCursor(cb, reps); err != nil {
		return err
	}
	cf.advance(cb)
	return nil
}

// placeTiny runs the second stage for a class-K tenant: its replicas join
// the currently open slots of the tiny cube, or a fresh cursor position
// when they no longer fit. Under TinyClassKMinusOne the tiny cube has the
// geometry of class K−1 (the paper's empirical optimization); under
// TinyMultiReplica it has the geometry of class αK−γ+1, so a full slot is
// exactly a multi-replica of size at most 1/αK.
func (cf *CubeFit) placeTiny(reps []packing.Replica) error {
	tau := cf.tinyClass()
	cb := cf.cube(tau, true)
	size := reps[0].Size
	if cb.open && !packing.FitsWithin(cb.fill+size, cb.slotSize) {
		cf.advance(cb)
	}
	if err := cf.placeAtCursor(cb, reps); err != nil {
		return err
	}
	cb.open = true
	cb.fill += size
	return nil
}

// tinyClass returns the bin class hosting class-K replicas.
func (cf *CubeFit) tinyClass() int {
	if cf.cfg.TinyPolicy == TinyMultiReplica {
		return AlphaK(cf.cfg.K) - cf.cfg.Gamma + 1
	}
	return cf.cfg.K - 1
}

// placeAtCursor places the γ replicas at the slots addressed by the cube's
// current counter value: replica j uses the (j)-fold right-cyclic shift of
// the counter's base-τ digits; the first γ−1 digits select the bin within
// group j and the last digit the slot within the bin.
//
//cubefit:hotpath
func (cf *CubeFit) placeAtCursor(cb *cube, reps []packing.Replica) error {
	cb.loadDigits()
	for j, rep := range reps {
		binIdx, slotIdx := cb.address(j)
		b, err := cf.binAt(cb, j, binIdx)
		if err != nil {
			return err
		}
		if !packing.FitsWithin(rep.Size, cb.slotSize) {
			//cubefit:vet-allow hotpath -- unreachable internal-error edge: ClassOf guarantees the replica fits its class slot
			return fmt.Errorf("core: internal: replica size %v exceeds slot size %v of class %d",
				rep.Size, cb.slotSize, cb.tau)
		}
		if cf.placeFault != nil {
			if err := cf.placeFault(b.server, rep); err != nil {
				return err
			}
		}
		if err := cf.p.Place(b.server, rep); err != nil {
			//cubefit:vet-allow hotpath -- cold error edge: cube addressing guarantees distinct servers with free capacity
			return fmt.Errorf("core: internal: cube placement rejected: %w", err)
		}
		if cf.rec != nil {
			e := obs.NewEvent(obs.KindCubePlace)
			e.Tenant = int(rep.Tenant)
			e.Replica = rep.Index
			e.Server = b.server
			e.Slot = slotIdx
			e.Class = cb.tau
			e.Tiny = cb.tiny
			e.Counter = cb.cnt
			//cubefit:vet-allow hotpath -- recorder-only: the recorded event owns its digit trail, so the copy is unavoidable and the path is skipped without a recorder
			e.Digits = append([]int(nil), cb.digits...)
			e.Size = rep.Size
			cf.emit(&e)
		}
	}
	// Refresh reserve caches once per touched server (shared loads changed
	// between every pair of the γ bins).
	hosts := cf.p.TenantHostsInto(reps[0].Tenant, cf.hostScratch)
	cf.hostScratch = hosts
	for _, h := range hosts {
		if h >= 0 {
			cf.refreshBin(cf.bins[h])
		}
	}
	return nil
}

// advance closes the slots at the current cursor position and moves the
// counter forward, replacing the groups with fresh bins on wrap-around.
//
//cubefit:hotpath
func (cf *CubeFit) advance(cb *cube) {
	cb.loadDigits()
	for j := 0; j < cf.cfg.Gamma; j++ {
		binIdx, _ := cb.address(j)
		sid := cb.groups[j][binIdx]
		if sid < 0 {
			continue // address never materialized (cannot happen after placement)
		}
		b := cf.bins[sid]
		b.closed++
		if b.closed == b.tau && !b.mature {
			cf.matureBin(b)
		}
	}
	var closedDigits []int
	if cf.rec != nil {
		//cubefit:vet-allow hotpath -- recorder-only: the recorded event owns its digit trail
		closedDigits = append([]int(nil), cb.digits...)
	}
	cb.open = false
	cb.fill = 0
	cb.cnt++
	if cb.cnt == cb.size {
		cb.cnt = 0
		for j := range cb.groups {
			//cubefit:vet-allow hotpath -- wrap-around only: a fresh group row is built once per τ^γ placements
			row := make([]int, cb.rowLen)
			for i := range row {
				row[i] = -1
			}
			cb.groups[j] = row
		}
	}
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindCubeAdvance)
		e.Class = cb.tau
		e.Tiny = cb.tiny
		e.Counter = cb.cnt
		e.Digits = closedDigits
		cf.emit(&e)
	}
}

// cube returns (creating on demand) the cube for a class and kind.
func (cf *CubeFit) cube(tau int, tiny bool) *cube {
	key := cubeKey{tau: tau, tiny: tiny}
	if cb, ok := cf.cubes[key]; ok {
		return cb
	}
	gamma := cf.cfg.Gamma
	size, _ := ipow(tau, gamma)
	rowLen, _ := ipow(tau, gamma-1)
	cb := &cube{
		tau:      tau,
		tiny:     tiny,
		slotSize: cf.cfg.SlotSize(tau),
		size:     size,
		rowLen:   rowLen,
		groups:   make([][]int, gamma),
		digits:   make([]int, gamma),
	}
	for j := range cb.groups {
		row := make([]int, rowLen)
		for i := range row {
			row[i] = -1
		}
		cb.groups[j] = row
	}
	cf.cubes[key] = cb
	return cb
}

// binAt returns the bin for group j, index binIdx of the cube, opening a
// new server for it on first use.
func (cf *CubeFit) binAt(cb *cube, j, binIdx int) (*bin, error) {
	if sid := cb.groups[j][binIdx]; sid >= 0 {
		return cf.bins[sid], nil
	}
	sid := cf.p.OpenServer()
	if sid != len(cf.bins) {
		return nil, fmt.Errorf("core: internal: server id %d does not match bin table %d", sid, len(cf.bins))
	}
	b := &bin{
		server:    sid,
		slack:     1, // an empty server's: refreshBin runs only once it hosts a replica
		tau:       int32(cb.tau),
		tiny:      cb.tiny,
		activeIdx: -1,
		left:      noBin,
		right:     noBin,
		prio:      binPrio(sid),
	}
	cf.bins = append(cf.bins, b)
	cb.groups[j][binIdx] = sid
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindBinOpen)
		e.Server = sid
		e.Class = cb.tau
		e.Tiny = cb.tiny
		cf.emit(&e)
	}
	return b, nil
}

// matureBin marks a bin mature and makes it available to the first stage.
func (cf *CubeFit) matureBin(b *bin) {
	b.mature = true
	if cf.rec != nil {
		e := obs.NewEvent(obs.KindBinMature)
		e.Server = b.server
		e.Class = int(b.tau)
		e.Tiny = b.tiny
		e.Level = cf.p.Server(b.server).Level()
		cf.emit(&e)
	}
	cf.refreshBin(b)
}

// refreshBin recomputes the bin's cached failover reserve, level and slack
// and maintains its membership in the active (first-stage candidate) list
// and the Best-Fit index.
//
//cubefit:hotpath
func (cf *CubeFit) refreshBin(b *bin) {
	srv := cf.p.Server(b.server)
	if cf.cachedReserve {
		b.reserve = b.digest.topSum(cf.cfg.Gamma - 1)
	} else {
		b.reserve = srv.TopShared(cf.cfg.Gamma - 1)
	}
	b.level = srv.Level()
	b.slack = 1 - b.level - b.reserve
	if !b.mature {
		return
	}
	switch {
	case packing.FitsWithin(b.slack, cf.cfg.PruneSlack):
		if b.activeIdx >= 0 {
			cf.removeActive(b)
		}
		cf.retireBin(b)
	case b.activeIdx < 0:
		// (Re-)activate: either freshly matured, or slack was regained by a
		// tenant departure.
		if b.retired && cf.rec != nil {
			e := obs.NewEvent(obs.KindBinReactivate)
			e.Server = b.server
			cf.emit(&e)
		}
		b.retired = false
		b.activeIdx = int32(len(cf.active))
		//cubefit:vet-allow hotpath -- activation growth is amortized: steady state reuses the capacity freed by removeActive swap-removes
		cf.active = append(cf.active, b)
		cf.index.insert(cf.bins, b)
	default:
		// Already active: re-key on a level change, re-pull the slack
		// maxima otherwise.
		cf.index.update(cf.bins, b)
	}
}

// retireBin marks a bin retired, emitting the event only on the
// transition (refreshBin revisits retired bins after departures).
func (cf *CubeFit) retireBin(b *bin) {
	if !b.retired && cf.rec != nil {
		e := obs.NewEvent(obs.KindBinRetire)
		e.Server = b.server
		cf.emit(&e)
	}
	b.retired = true
}

//cubefit:hotpath
func (cf *CubeFit) removeActive(b *bin) {
	last := len(cf.active) - 1
	i := b.activeIdx
	cf.active[i] = cf.active[last]
	cf.active[i].activeIdx = i
	cf.active = cf.active[:last]
	b.activeIdx = -1
	cf.index.remove(cf.bins, b)
}

// NumActiveMatureBins reports the number of mature bins currently eligible
// for first-stage placement (exposed for tests and diagnostics).
func (cf *CubeFit) NumActiveMatureBins() int { return len(cf.active) }

// loadDigits refreshes the scratch digit expansion of cnt (base τ, most
// significant digit first).
func (cb *cube) loadDigits() {
	v := cb.cnt
	for i := len(cb.digits) - 1; i >= 0; i-- {
		cb.digits[i] = v % cb.tau
		v /= cb.tau
	}
}

// address returns (binIdx, slotIdx) for replica j at the current cursor:
// the j-fold right-cyclic shift of the digits, split into a γ−1 digit bin
// prefix and a final slot digit.
func (cb *cube) address(j int) (binIdx, slotIdx int) {
	gamma := len(cb.digits)
	// shifted[i] = digits[(i - j) mod gamma]; iterate the prefix directly.
	for i := 0; i < gamma-1; i++ {
		binIdx = binIdx*cb.tau + cb.digits[((i-j)%gamma+gamma)%gamma]
	}
	slotIdx = cb.digits[((gamma-1-j)%gamma+gamma)%gamma]
	return binIdx, slotIdx
}

// ipow returns base^exp and whether it fit in an int without overflow.
func ipow(base, exp int) (int, bool) {
	if exp < 0 {
		return 0, false
	}
	result := 1
	for i := 0; i < exp; i++ {
		if base != 0 && result > maxCubeSize*64/base {
			return 0, false
		}
		result *= base
	}
	return result, true
}
