// Package packing defines the shared model of the robust tenant placement
// problem from Mate, Daudjee and Kamali (ICDCS 2017): tenants, replicas,
// servers, placements, and the robustness invariant
//
//	|Si| + Σ_{Sj ∈ S*} |Si ∩ Sj| ≤ 1
//
// for every server Si and every set S* of at most γ−1 other servers, where
// |Si| is the total replica load on Si and |Si ∩ Sj| the load of Si's
// replicas whose tenant also has a replica on Sj.
//
// All consolidation algorithms in this repository (CubeFit, RFI, the naive
// baselines) build on this package, and the Validate family of functions is
// the ground truth used by their tests.
package packing

import (
	"errors"
	"fmt"
	"sort"
)

// TenantID identifies a tenant within one placement.
type TenantID int

// Tenant is one arriving client application. Load is the normalized
// in-memory server load in (0, 1] from the paper's linear model
// load = δ·clients + β. Clients is carried along for the cluster simulator
// and may be zero in pure packing experiments.
type Tenant struct {
	ID      TenantID
	Load    float64
	Clients int
}

// Validate reports whether the tenant is well formed.
func (t Tenant) Validate() error {
	if t.Load <= 0 || t.Load > 1 {
		return fmt.Errorf("packing: tenant %d load %v outside (0,1]", t.ID, t.Load)
	}
	if t.Clients < 0 {
		return fmt.Errorf("packing: tenant %d has negative clients", t.ID)
	}
	return nil
}

// Replica is one of the γ copies of a tenant. Size is Load/γ; Clients is
// the number of this tenant's clients routed to this replica.
type Replica struct {
	Tenant  TenantID
	Index   int // 0-based replica index within the tenant
	Size    float64
	Clients int
}

// Server is one unit-capacity machine in a placement. Fields are managed by
// Placement; read-only for callers.
type Server struct {
	id    int
	level float64
	// replicas holds the hosted replicas, at most one per tenant, in no
	// particular order.
	replicas []Replica
	// shared holds one entry per peer server j with |Si ∩ Sj| > 0: the
	// total load of replicas on this server whose tenant also has a replica
	// on j. No particular order.
	shared []sharedLoad
}

// sharedLoad is one pairwise intersection |Si ∩ Sj| of a server with peer j.
type sharedLoad struct {
	peer int
	load float64
}

// ID returns the server's index within its placement.
func (s *Server) ID() int { return s.id }

// Level returns the total replica load currently hosted (|Si|).
func (s *Server) Level() float64 { return s.level }

// NumReplicas returns the number of replicas hosted.
func (s *Server) NumReplicas() int { return len(s.replicas) }

// Replicas returns a copy of the hosted replicas in tenant order.
func (s *Server) Replicas() []Replica {
	out := make([]Replica, len(s.replicas))
	copy(out, s.replicas)
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Hosts reports whether the server hosts a replica of tenant id.
func (s *Server) Hosts(id TenantID) bool { return s.replicaIndex(id) >= 0 }

// replicaIndex returns the position of tenant id's replica in s.replicas,
// or -1.
func (s *Server) replicaIndex(id TenantID) int {
	for i := range s.replicas {
		if s.replicas[i].Tenant == id {
			return i
		}
	}
	return -1
}

// SharedWith returns |Si ∩ Sj| for this server Si and server j.
func (s *Server) SharedWith(j int) float64 {
	if i := s.sharedIndex(j); i >= 0 {
		return s.shared[i].load
	}
	return 0
}

// sharedIndex returns the position of peer's entry in s.shared, or -1.
func (s *Server) sharedIndex(peer int) int {
	for i := range s.shared {
		if s.shared[i].peer == peer {
			return i
		}
	}
	return -1
}

// addShared adds delta to the load this server shares with peer and
// returns the new value. A negative delta (an unplace) that leaves at most
// rounding noise removes the entry and returns 0.
//
//cubefit:hotpath
func (s *Server) addShared(peer int, delta float64) float64 {
	i := s.sharedIndex(peer)
	if i < 0 {
		if delta < 0 {
			return 0
		}
		//cubefit:vet-allow hotpath -- amortized: a server's peer list grows with the tenants it hosts, and removals free the room for reuse
		s.shared = append(s.shared, sharedLoad{peer: peer, load: delta})
		return delta
	}
	v := s.shared[i].load + delta
	if delta < 0 && Negligible(v) {
		last := len(s.shared) - 1
		s.shared[i] = s.shared[last]
		s.shared = s.shared[:last]
		return 0
	}
	s.shared[i].load = v
	return v
}

// TopShared returns the sum of the k largest shared loads with other
// servers: the worst-case extra load under any simultaneous failure of k
// other servers (the reserve this server must hold).
//
//cubefit:hotpath
func (s *Server) TopShared(k int) float64 {
	if k <= 0 || len(s.shared) == 0 {
		return 0
	}
	if k > len(s.shared) {
		// Clamp: failing more peers than exist adds nothing. The clamped k
		// then routes through one of the descending-order sums below —
		// summing the entries as stored would add floats in an order that
		// depends on the placement's history, perturbing the last ulp and
		// breaking the byte-identical parity contract.
		k = len(s.shared)
	}
	if k <= topSharedFastK {
		// Single pass keeping the k largest values; γ−1 is 1 or 2 in the
		// paper's configurations, so this path dominates.
		var top [topSharedFastK]float64
		for _, e := range s.shared {
			v := e.load
			for i := 0; i < k; i++ {
				if v > top[i] {
					copy(top[i+1:k], top[i:k-1])
					top[i] = v
					break
				}
			}
		}
		sum := 0.0
		for i := 0; i < k; i++ {
			sum += top[i]
		}
		return sum
	}
	//cubefit:vet-allow hotpath -- k > topSharedFastK only when γ−1 > 4, outside every paper configuration; the fast path above is allocation-free
	vals := make([]float64, 0, len(s.shared))
	for _, e := range s.shared {
		vals = append(vals, e.load) //cubefit:vet-allow hotpath -- cold k > topSharedFastK path; vals has full capacity reserved above
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += vals[i]
	}
	return sum
}

// topSharedFastK is the largest k served by TopShared's allocation-free
// fast path.
const topSharedFastK = 4

// TopSharedSet returns the sum of the k largest shared loads together
// with the peer servers realizing it — the arg-max failure set of the
// robustness invariant: the (at most) k peers whose simultaneous failure
// redirects the most load onto this server. The set is deterministic:
// peers are ranked by decreasing shared load with ties broken by
// ascending server ID, and only peers actually sharing load appear
// (failing a non-sharing server adds nothing to the worst case). The set
// is written into dst[:0], so a caller that passes the previous set back
// re-audits a server without allocating.
func (s *Server) TopSharedSet(k int, dst []int) (float64, []int) {
	dst = dst[:0]
	if k <= 0 || len(s.shared) == 0 {
		return 0, dst
	}
	if k > len(s.shared) {
		k = len(s.shared)
	}
	// One pass keeps the k best peers in rank order by insertion, on the
	// stack for every k up to γ−1 = 8.
	var buf [8]sharedLoad
	top := buf[:0]
	if k > len(buf) {
		top = make([]sharedLoad, 0, k)
	}
	for _, e := range s.shared {
		i := len(top)
		for i > 0 && outranks(e, top[i-1]) {
			i--
		}
		if i == k {
			continue
		}
		if len(top) < k {
			top = append(top, e)
		}
		copy(top[i+1:], top[i:len(top)-1])
		top[i] = e
	}
	sum := 0.0
	for _, e := range top {
		sum += e.load
		dst = append(dst, e.peer)
	}
	return sum, dst
}

// outranks orders peers for TopSharedSet: larger shared load first, then
// lower server ID, a strict total order over one server's peers.
func outranks(a, b sharedLoad) bool {
	if a.load != b.load { //cubefit:vet-allow floatcmp -- exact tie-break keeps the ranking a strict total order
		return a.load > b.load
	}
	return a.peer < b.peer
}

// Free returns the spare capacity 1 − Level().
func (s *Server) Free() float64 { return 1 - s.level }

// Placement is a mutable assignment of tenant replicas to servers. It
// maintains pairwise shared loads incrementally so that robustness checks
// and m-fit tests are cheap. Placement is not safe for concurrent use.
type Placement struct {
	gamma   int
	servers []*Server
	// The tenant table. rows maps each registered tenant to its row r:
	// tenants[r] is the tenant and hosts[r·γ : (r+1)·γ] the server of each
	// of its replicas by replica index, -1 where unplaced. RemoveTenant
	// puts the row on free and AddTenant reuses it, so the table only
	// grows with the peak number of tenants.
	rows    map[TenantID]int32
	tenants []Tenant
	hosts   []int
	free    []int32
	// sharedHook, when non-nil, observes every pairwise shared-load
	// mutation (see SetSharedHook).
	sharedHook func(server, peer int, value float64)
}

// Errors returned by Placement mutations.
var (
	ErrNoServer        = errors.New("packing: no such server")
	ErrDuplicateTenant = errors.New("packing: tenant already placed on server")
	ErrOverflow        = errors.New("packing: server capacity exceeded")
	ErrUnknownTenant   = errors.New("packing: unknown tenant")
	ErrBadReplica      = errors.New("packing: invalid replica")
)

// NewPlacement creates an empty placement with the given replication
// factor γ ≥ 1.
func NewPlacement(gamma int) (*Placement, error) {
	if gamma < 1 {
		return nil, fmt.Errorf("packing: replication factor %d < 1", gamma)
	}
	return &Placement{gamma: gamma, rows: make(map[TenantID]int32)}, nil
}

// Gamma returns the replication factor.
func (p *Placement) Gamma() int { return p.gamma }

// SetSharedHook registers fn to run synchronously after every mutation of
// a pairwise shared load: fn(server, peer, value) reports that server's
// shared load with peer is now value, where value == 0 means the entry was
// removed (shared loads are strictly positive while present). Place fires
// it twice per affected pair (once per direction). The placement engines
// use it to maintain incremental top-k reserve digests; fn must not
// mutate the placement. A nil fn detaches the hook.
func (p *Placement) SetSharedHook(fn func(server, peer int, value float64)) { p.sharedHook = fn }

// NumServers returns the number of servers ever opened.
func (p *Placement) NumServers() int { return len(p.servers) }

// NumUsedServers returns the number of servers hosting at least one replica.
func (p *Placement) NumUsedServers() int {
	n := 0
	for _, s := range p.servers {
		if len(s.replicas) > 0 {
			n++
		}
	}
	return n
}

// NumTenants returns the number of tenants known to the placement.
func (p *Placement) NumTenants() int { return len(p.rows) }

// Server returns the server with the given ID, or nil.
func (p *Placement) Server(id int) *Server {
	if id < 0 || id >= len(p.servers) {
		return nil
	}
	return p.servers[id]
}

// Servers returns the internal server slice; callers must not mutate it.
func (p *Placement) Servers() []*Server { return p.servers }

// Tenant returns the stored tenant and whether it exists.
func (p *Placement) Tenant(id TenantID) (Tenant, bool) {
	r, ok := p.rows[id]
	if !ok {
		return Tenant{}, false
	}
	return p.tenants[r], true
}

// Tenants returns all tenants in ID order.
func (p *Placement) Tenants() []Tenant {
	out := make([]Tenant, 0, len(p.rows))
	//cubefit:vet-allow maprange -- collects tenants only; sorted by unique ID before returning
	for _, r := range p.rows {
		out = append(out, p.tenants[r])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// row returns the host slice of tenant id's row — the server of each
// replica by replica index, -1 where unplaced — and whether the tenant is
// registered. The slice aliases the table; writes through it move hosts.
//
//cubefit:hotpath
func (p *Placement) row(id TenantID) ([]int, bool) {
	r, ok := p.rows[id]
	if !ok {
		return nil, false
	}
	return p.rowHosts(r), true
}

// rowHosts returns the host slice of table row r.
func (p *Placement) rowHosts(r int32) []int {
	i := int(r) * p.gamma
	return p.hosts[i : i+p.gamma : i+p.gamma]
}

// TenantHosts returns the server IDs hosting tenant id's replicas by replica
// index (-1 where unplaced), or nil if the tenant is unknown. The returned
// slice is a copy; use TenantHostsInto or EachTenantHost on hot paths.
func (p *Placement) TenantHosts(id TenantID) []int {
	hosts, ok := p.row(id)
	if !ok {
		return nil
	}
	return append([]int(nil), hosts...)
}

// TenantHostsInto is the allocation-free variant of TenantHosts: the host
// IDs are appended to buf[:0] (growing it only when its capacity is
// insufficient) and the filled slice is returned. It returns nil for an
// unknown tenant. The result aliases buf and is only valid until the next
// call with the same buffer or the next placement mutation.
//
//cubefit:hotpath
func (p *Placement) TenantHostsInto(id TenantID, buf []int) []int {
	hosts, ok := p.row(id)
	if !ok {
		return nil
	}
	return append(buf[:0], hosts...)
}

// EachTenantHost calls fn for every replica of tenant id with the replica
// index and its hosting server (-1 where unplaced). It visits replicas in
// index order and allocates nothing. fn must not mutate the placement.
//
//cubefit:hotpath
func (p *Placement) EachTenantHost(id TenantID, fn func(idx, server int)) {
	hosts, _ := p.row(id)
	for i, h := range hosts {
		fn(i, h)
	}
}

// OpenServer allocates a new empty server and returns its ID.
func (p *Placement) OpenServer() int {
	s := &Server{id: len(p.servers)}
	p.servers = append(p.servers, s)
	return s.id
}

// AddTenant registers a tenant without placing any replicas. Registration is
// idempotent for identical tenants and fails on conflicting re-registration.
func (p *Placement) AddTenant(t Tenant) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if r, ok := p.rows[t.ID]; ok {
		if p.tenants[r] != t {
			return fmt.Errorf("packing: tenant %d re-registered with different attributes", t.ID)
		}
		return nil
	}
	var r int32
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
		p.tenants[r] = t
	} else {
		r = int32(len(p.tenants))
		p.tenants = append(p.tenants, t)
		p.hosts = append(p.hosts, make([]int, p.gamma)...)
	}
	hosts := p.rowHosts(r)
	for i := range hosts {
		hosts[i] = -1
	}
	p.rows[t.ID] = r
	return nil
}

// ReplicaSize returns the per-replica load of tenant t under this
// placement's replication factor.
func (p *Placement) ReplicaSize(t Tenant) float64 { return t.Load / float64(p.gamma) }

// Replicas builds the γ replicas of tenant t, distributing its clients
// round-robin across replica indices.
func (p *Placement) Replicas(t Tenant) []Replica {
	return p.ReplicasInto(t, make([]Replica, 0, p.gamma))
}

// ReplicasInto is the allocation-free variant of Replicas: the γ replicas
// are appended to buf[:0] and the filled slice is returned. The result
// aliases buf and is only valid until the next call with the same buffer.
//
//cubefit:hotpath
func (p *Placement) ReplicasInto(t Tenant, buf []Replica) []Replica {
	size := p.ReplicaSize(t)
	buf = buf[:0]
	for i := 0; i < p.gamma; i++ {
		buf = append(buf, Replica{
			Tenant: t.ID, Index: i, Size: size,
			Clients: ReplicaClients(t.Clients, p.gamma, i),
		})
	}
	return buf
}

// ReplicaClients returns the client count routed to replica index of a
// tenant with the given total clients under γ-replication: clients are
// distributed round-robin, so the first clients%gamma replicas carry one
// extra. Event-log replay uses it to reconstruct routing exactly.
func ReplicaClients(clients, gamma, index int) int {
	c := clients / gamma
	if index < clients%gamma {
		c++
	}
	return c
}

// Place puts replica r of a registered tenant onto server sid. It enforces
// that a server hosts at most one replica per tenant and that the server's
// direct load does not exceed unit capacity. It does NOT enforce the
// robustness reserve; that is the placing algorithm's job (checked by
// Validate).
func (p *Placement) Place(sid int, r Replica) error {
	s := p.Server(sid)
	if s == nil {
		return fmt.Errorf("%w: %d", ErrNoServer, sid)
	}
	hosts, ok := p.row(r.Tenant)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTenant, r.Tenant)
	}
	if r.Index < 0 || r.Index >= p.gamma {
		return fmt.Errorf("%w: index %d with gamma %d", ErrBadReplica, r.Index, p.gamma)
	}
	if r.Size <= 0 {
		return fmt.Errorf("%w: size %v", ErrBadReplica, r.Size)
	}
	if hosts[r.Index] != -1 {
		return fmt.Errorf("%w: replica %d of tenant %d already on server %d",
			ErrBadReplica, r.Index, r.Tenant, hosts[r.Index])
	}
	// The tenant's hosts are exactly the servers holding its replicas.
	for _, h := range hosts {
		if h == sid {
			return fmt.Errorf("%w: tenant %d on server %d", ErrDuplicateTenant, r.Tenant, sid)
		}
	}
	if !WithinCapacity(s.level + r.Size) {
		return fmt.Errorf("%w: server %d level %v + %v", ErrOverflow, sid, s.level, r.Size)
	}

	s.replicas = append(s.replicas, r)
	s.level += r.Size
	hosts[r.Index] = sid

	// Update pairwise shared loads with the tenant's other hosts.
	for i, other := range hosts {
		if i == r.Index || other == -1 {
			continue
		}
		o := p.servers[other]
		v := s.addShared(other, r.Size)
		ov := o.addShared(sid, o.replicas[o.replicaIndex(r.Tenant)].Size)
		if p.sharedHook != nil {
			p.sharedHook(sid, other, v)
			p.sharedHook(other, sid, ov)
		}
	}
	return nil
}

// Unplace removes replica index idx of tenant id from its server. Used for
// first-stage rollback in CubeFit and for the tenant-departure extension.
func (p *Placement) Unplace(id TenantID, idx int) error {
	hosts, ok := p.row(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTenant, id)
	}
	if idx < 0 || idx >= p.gamma || hosts[idx] == -1 {
		return fmt.Errorf("%w: replica %d of tenant %d not placed", ErrBadReplica, idx, id)
	}
	p.unplace(id, hosts, idx)
	return nil
}

// unplace removes the placed replica idx of tenant id, whose row is hosts.
func (p *Placement) unplace(id TenantID, hosts []int, idx int) {
	sid := hosts[idx]
	s := p.servers[sid]
	ri := s.replicaIndex(id)
	r := s.replicas[ri]

	for i, other := range hosts {
		if i == idx || other == -1 {
			continue
		}
		o := p.servers[other]
		v := s.addShared(other, -r.Size)
		ov := o.addShared(sid, -o.replicas[o.replicaIndex(id)].Size)
		if p.sharedHook != nil {
			p.sharedHook(sid, other, v)
			p.sharedHook(other, sid, ov)
		}
	}
	last := len(s.replicas) - 1
	s.replicas[ri] = s.replicas[last]
	s.replicas = s.replicas[:last]
	s.level -= r.Size
	if s.level < 0 {
		s.level = 0
	}
	hosts[idx] = -1
}

// RemoveTenant unplaces every replica of the tenant and forgets it
// (the dynamic-departure extension; see DESIGN.md §7).
func (p *Placement) RemoveTenant(id TenantID) error {
	r, ok := p.rows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTenant, id)
	}
	hosts := p.rowHosts(r)
	for i, sid := range hosts {
		if sid != -1 {
			p.unplace(id, hosts, i)
		}
	}
	delete(p.rows, id)
	p.free = append(p.free, r)
	return nil
}

// TotalLoad returns the sum of all placed replica loads.
func (p *Placement) TotalLoad() float64 {
	sum := 0.0
	for _, s := range p.servers {
		sum += s.level
	}
	return sum
}

// Utilization returns TotalLoad divided by the number of used servers
// (0 when no server is used).
func (p *Placement) Utilization() float64 {
	used := p.NumUsedServers()
	if used == 0 {
		return 0
	}
	return p.TotalLoad() / float64(used)
}
