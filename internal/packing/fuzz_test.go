package packing

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"cubefit/internal/rng"
)

// Placement operations a fuzz input can drive. Each operation takes four
// bytes: the operation, the tenant and two arguments.
const (
	fuzzAdd = iota
	fuzzPlace
	fuzzUnplace
	fuzzRemove
	fuzzOps
)

// fuzzTenantIDs bounds the tenant IDs an input can name, so departed IDs
// come back and their storage is reused.
const fuzzTenantIDs = 8

// fuzzMaxOps caps the operations one input applies, so the fuzzer spends
// its time on many short histories rather than on checking a few long ones.
const fuzzMaxOps = 64

// FuzzPlacementOps drives AddTenant, Place, Unplace and RemoveTenant on a
// small placement (γ from 2 to 4, 2 to 9 servers) and compares the
// placement with a reference model kept here: the tenants and their
// hosts, and each server's replicas, with the shared loads and levels
// recomputed from the replica lists the way
// TestSharedLoadsMatchRecomputation does. After every operation it checks
// the tenants and the servers the operation can have changed; after the
// last one, every server.
//
// Input layout: byte 0 picks γ, byte 1 the server count, then four bytes
// per operation (see fuzzStep), at most fuzzMaxOps of them.
func FuzzPlacementOps(f *testing.F) {
	for _, seed := range fuzzSeeds(6) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		gamma := 2 + int(in[0])%3
		n := 2 + int(in[1])%8
		p := mustPlacement(t, gamma)
		for i := 0; i < n; i++ {
			p.OpenServer()
		}
		m := newFuzzModel(gamma, n)
		if max := 2 + 4*fuzzMaxOps; len(in) > max {
			in = in[:max]
		}
		for op := 2; op+4 <= len(in); op += 4 {
			touched := fuzzStep(t, p, m, in[op:op+4])
			m.checkTenants(t, p)
			m.checkServers(t, p, touched)
		}
		m.check(t, p)
	})
}

// fuzzSeeds builds inputs shaped like TestSharedLoadsMatchRecomputation's
// trials: tenants admitted with all γ replicas on a random permutation of
// the servers, and random live tenants departing about a third of the time.
func fuzzSeeds(trials int) [][]byte {
	r := rng.New(987)
	var out [][]byte
	for trial := 0; trial < trials; trial++ {
		gamma := r.IntRange(2, 4)
		n := r.IntRange(gamma, 9)
		in := []byte{byte(gamma - 2), byte(n - 2)}
		var live []int
		for step := 0; step < 20; step++ {
			if len(live) > 0 && (len(live) == fuzzTenantIDs || r.Float64() < 0.35) {
				i := r.Intn(len(live))
				in = append(in, fuzzRemove, byte(live[i]), 0, 0)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			id := 0
			for contains(live, id) {
				id++
			}
			in = append(in, fuzzAdd, byte(id), byte(r.Intn(256)), byte(r.Intn(8)))
			for j, sid := range r.Perm(n)[:gamma] {
				in = append(in, fuzzPlace, byte(id), byte(sid), byte(j))
			}
			live = append(live, id)
		}
		out = append(out, in)
	}
	return out
}

func contains(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// fuzzStep applies one four-byte operation to the placement and to the
// model, and checks that both accept or reject it alike. A server or
// replica argument may name one past the valid range, to reach the error
// paths. It returns, as a bit per server ID, the servers the operation
// can have changed: the server it names and the tenant's hosts before
// and after. Shared loads change only between a tenant's hosts.
//
// fuzzStep and the checks below leave out t.Helper: it walks the stack on
// every call, which took a quarter of an exec's time, and a failure's own
// line names the check that failed.
func fuzzStep(t *testing.T, p *Placement, m *fuzzModel, b []byte) (touched uint16) {
	id := TenantID(int(b[1]) % fuzzTenantIDs)
	touched = m.hostMask(id)
	var got, want error
	switch int(b[0]) % fuzzOps {
	case fuzzAdd:
		tn := Tenant{ID: id, Load: 0.02 + 0.3*float64(b[2])/255, Clients: int(b[3]) % 8}
		got, want = p.AddTenant(tn), m.add(tn)
	case fuzzPlace:
		sid := int(b[2]) % (m.n + 1)
		if sid < m.n {
			touched |= 1 << sid
		}
		rep := Replica{Tenant: id, Index: int(b[3]) % (m.gamma + 1), Size: 0.1}
		if tn, ok := m.tenants[id]; ok && rep.Index < m.gamma {
			rep = p.Replicas(tn)[rep.Index]
		}
		want = m.place(p, sid, rep)
		got = p.Place(sid, rep)
	case fuzzUnplace:
		idx := int(b[2]) % (m.gamma + 1)
		got, want = p.Unplace(id, idx), m.unplace(id, idx)
	case fuzzRemove:
		got, want = p.RemoveTenant(id), m.remove(id)
	}
	if (got == nil) != (want == nil) || (want != nil && want != errConflict && !errors.Is(got, want)) {
		t.Fatalf("op %v: placement returned %v, model %v", b, got, want)
	}
	return touched | m.hostMask(id)
}

// fuzzModel is the reference placement: plain maps, nothing incremental.
type fuzzModel struct {
	gamma, n int
	tenants  map[TenantID]Tenant
	hosts    map[TenantID][]int
	reps     []map[TenantID]Replica // per server
}

func newFuzzModel(gamma, n int) *fuzzModel {
	m := &fuzzModel{
		gamma:   gamma,
		n:       n,
		tenants: make(map[TenantID]Tenant),
		hosts:   make(map[TenantID][]int),
		reps:    make([]map[TenantID]Replica, n),
	}
	for i := range m.reps {
		m.reps[i] = make(map[TenantID]Replica)
	}
	return m
}

// errConflict stands for AddTenant's unnamed re-registration error.
var errConflict = errors.New("conflicting re-registration")

func (m *fuzzModel) add(tn Tenant) error {
	if prev, ok := m.tenants[tn.ID]; ok {
		if prev != tn {
			return errConflict
		}
		return nil
	}
	m.tenants[tn.ID] = tn
	hosts := make([]int, m.gamma)
	for i := range hosts {
		hosts[i] = -1
	}
	m.hosts[tn.ID] = hosts
	return nil
}

// place mirrors Place's checks in Place's order. The capacity check reads
// the placement's own level (compared with the model's sum in check) so
// that a rounding difference at the boundary cannot split the two.
func (m *fuzzModel) place(p *Placement, sid int, r Replica) error {
	if sid >= m.n {
		return ErrNoServer
	}
	hosts, ok := m.hosts[r.Tenant]
	switch {
	case !ok:
		return ErrUnknownTenant
	case r.Index >= m.gamma || hosts[r.Index] != -1:
		return ErrBadReplica
	}
	if _, dup := m.reps[sid][r.Tenant]; dup {
		return ErrDuplicateTenant
	}
	if !WithinCapacity(p.Server(sid).Level() + r.Size) {
		return ErrOverflow
	}
	m.reps[sid][r.Tenant] = r
	hosts[r.Index] = sid
	return nil
}

func (m *fuzzModel) unplace(id TenantID, idx int) error {
	hosts, ok := m.hosts[id]
	if !ok {
		return ErrUnknownTenant
	}
	if idx >= m.gamma || hosts[idx] == -1 {
		return ErrBadReplica
	}
	delete(m.reps[hosts[idx]], id)
	hosts[idx] = -1
	return nil
}

func (m *fuzzModel) remove(id TenantID) error {
	hosts, ok := m.hosts[id]
	if !ok {
		return ErrUnknownTenant
	}
	for _, sid := range hosts {
		if sid >= 0 {
			delete(m.reps[sid], id)
		}
	}
	delete(m.hosts, id)
	delete(m.tenants, id)
	return nil
}

// hostMask returns the model's hosts of tenant id, a bit per server ID.
func (m *fuzzModel) hostMask(id TenantID) uint16 {
	var mask uint16
	for _, sid := range m.hosts[id] {
		if sid >= 0 {
			mask |= 1 << sid
		}
	}
	return mask
}

// check compares every observable of the placement with the model.
func (m *fuzzModel) check(t *testing.T, p *Placement) {
	m.checkTenants(t, p)
	m.checkServers(t, p, 1<<m.n-1)
}

// checkTenants compares the tenants and their hosts with the model.
func (m *fuzzModel) checkTenants(t *testing.T, p *Placement) {
	if got := p.NumTenants(); got != len(m.tenants) {
		t.Fatalf("NumTenants = %d, model %d", got, len(m.tenants))
	}
	var tenants []Tenant
	for id := TenantID(0); id < fuzzTenantIDs; id++ {
		want, known := m.tenants[id]
		got, ok := p.Tenant(id)
		if ok != known || got != want {
			t.Fatalf("Tenant(%d) = %v, %v; model %v, %v", id, got, ok, want, known)
		}
		if hosts := p.TenantHosts(id); !slices.Equal(hosts, m.hosts[id]) {
			t.Fatalf("TenantHosts(%d) = %v, model %v", id, hosts, m.hosts[id])
		}
		if known {
			tenants = append(tenants, want)
		}
	}
	if got := p.Tenants(); !slices.Equal(got, tenants) {
		t.Fatalf("Tenants() = %v, model %v", got, tenants)
	}
}

// checkServers compares the servers in mask, a bit per server ID, with the
// model: replicas, level, hosted tenants and shared loads with every peer.
func (m *fuzzModel) checkServers(t *testing.T, p *Placement, mask uint16) {
	// on[s][id] reports whether the model puts a replica of id on s.
	on := make([][fuzzTenantIDs]bool, m.n)
	for s, reps := range m.reps {
		for id := range reps {
			on[s][id] = true
		}
	}
	for _, si := range p.Servers() {
		if mask&(1<<si.ID()) == 0 {
			continue
		}
		want := make([]Replica, 0, len(m.reps[si.ID()]))
		level := 0.0
		for _, r := range m.reps[si.ID()] {
			want = append(want, r)
		}
		slices.SortFunc(want, func(a, b Replica) int { return cmp.Compare(a.Tenant, b.Tenant) })
		for _, r := range want {
			level += r.Size
		}
		if got := si.Replicas(); !slices.Equal(got, want) {
			t.Fatalf("server %d Replicas() = %v, model %v", si.ID(), got, want)
		}
		if !AlmostEqual(si.Level(), level) {
			t.Fatalf("server %d level %v, recomputed %v", si.ID(), si.Level(), level)
		}
		for id := TenantID(0); id < fuzzTenantIDs; id++ {
			if got := si.Hosts(id); got != on[si.ID()][id] {
				t.Fatalf("server %d Hosts(%d) = %v, model %v", si.ID(), id, got, on[si.ID()][id])
			}
		}
		peers := 0
		for _, sj := range p.Servers() {
			if si.ID() == sj.ID() {
				continue
			}
			shared := 0.0
			for _, r := range want {
				if on[sj.ID()][r.Tenant] {
					shared += r.Size
				}
			}
			if shared > 0 {
				peers++
			}
			if got := si.SharedWith(sj.ID()); !AlmostEqual(got, shared) {
				t.Fatalf("SharedWith(%d, %d) = %v, recomputed %v", si.ID(), sj.ID(), got, shared)
			}
		}
		if got := si.NumShared(); got != peers {
			t.Fatalf("server %d NumShared = %d, recomputed %d", si.ID(), got, peers)
		}
	}
}
