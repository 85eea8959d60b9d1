package core

import (
	"reflect"
	"testing"
	"unsafe"

	"cubefit/internal/packing"
	"cubefit/internal/workload"
)

// figure1Sequence is the tenant sequence of the paper's Figure 1:
// σ = ⟨a=0.6, b=0.3, c=0.6, d=0.78, e=0.12, f=0.36⟩.
func figure1Sequence() []packing.Tenant {
	loads := []float64{0.6, 0.3, 0.6, 0.78, 0.12, 0.36}
	out := make([]packing.Tenant, len(loads))
	for i, l := range loads {
		out[i] = packing.Tenant{ID: packing.TenantID(i), Load: l}
	}
	return out
}

func mustCubeFit(t *testing.T, cfg Config) *CubeFit {
	t.Helper()
	cf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

func placeAll(t *testing.T, cf *CubeFit, tenants []packing.Tenant) {
	t.Helper()
	for _, tn := range tenants {
		if err := cf.Place(tn); err != nil {
			t.Fatalf("Place(%+v): %v", tn, err)
		}
	}
}

func TestFigure1Gamma2(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 5})
	placeAll(t, cf, figure1Sequence())
	p := cf.Placement()
	if err := p.Validate(); err != nil {
		t.Fatalf("Figure 1 (γ=2) placement invalid: %v", err)
	}
	// Every single-server failure must keep all survivors within capacity.
	for f := 0; f < p.NumServers(); f++ {
		if got := p.MaxPostFailureLoad([]int{f}); !packing.WithinCapacity(got) {
			t.Fatalf("failure of server %d overloads a survivor to %v", f, got)
		}
	}
}

func TestFigure1Gamma3(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 3, K: 5})
	placeAll(t, cf, figure1Sequence())
	p := cf.Placement()
	if err := p.Validate(); err != nil {
		t.Fatalf("Figure 1 (γ=3) placement invalid: %v", err)
	}
	// Any two simultaneous failures must keep survivors within capacity.
	n := p.NumServers()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if got := p.MaxPostFailureLoad([]int{a, b}); !packing.WithinCapacity(got) {
				t.Fatalf("failures {%d,%d} overload a survivor to %v", a, b, got)
			}
		}
	}
}

func TestReplicasOnDistinctServers(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 3, K: 10})
	placeAll(t, cf, []packing.Tenant{{ID: 1, Load: 0.5}})
	hosts := cf.Placement().TenantHosts(1)
	seen := make(map[int]bool)
	for _, h := range hosts {
		if h < 0 {
			t.Fatalf("replica unplaced: hosts=%v", hosts)
		}
		if seen[h] {
			t.Fatalf("two replicas on server %d", h)
		}
		seen[h] = true
	}
}

func TestInvalidTenantRejected(t *testing.T) {
	cf := mustCubeFit(t, DefaultConfig())
	if err := cf.Place(packing.Tenant{ID: 1, Load: 0}); err == nil {
		t.Fatal("zero-load tenant accepted")
	}
	if err := cf.Place(packing.Tenant{ID: 1, Load: 1.5}); err == nil {
		t.Fatal("overload tenant accepted")
	}
	// Duplicate ID with different load.
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.7}); err == nil {
		t.Fatal("conflicting duplicate tenant accepted")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(Config{Gamma: 0, K: 10}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := New(Config{Gamma: 3, K: 5, TinyPolicy: TinyMultiReplica}); err == nil {
		t.Fatal("invalid multi-replica config accepted")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	src1, err := workload.NewLoadSource(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	tenants := workload.Take(src1, 500)

	counts := make([]int, 2)
	for i := range counts {
		cf := mustCubeFit(t, DefaultConfig())
		placeAll(t, cf, tenants)
		counts[i] = cf.Placement().NumUsedServers()
	}
	if counts[0] != counts[1] {
		t.Fatalf("non-deterministic server counts: %v", counts)
	}
}

func TestFirstStageConsolidatesSmallTenants(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10})
	// Large tenants first: mature class-1 bins with slack appear.
	id := packing.TenantID(0)
	for i := 0; i < 8; i++ {
		placeAll(t, cf, []packing.Tenant{{ID: id, Load: 0.7}}) // replicas 0.35, class 1
		id++
	}
	if cf.NumActiveMatureBins() == 0 {
		t.Fatal("no mature bins after class-1 tenants")
	}
	before := cf.Placement().NumUsedServers()
	// Small tenants should slot into the mature bins' slack (each class-1
	// bin has level 0.35, reserve 0.35, slack 0.30).
	for i := 0; i < 8; i++ {
		placeAll(t, cf, []packing.Tenant{{ID: id, Load: 0.2}}) // replicas 0.1
		id++
	}
	st := cf.Stats()
	if st.FirstStageTenants == 0 {
		t.Fatalf("no tenants used the first stage: %+v", st)
	}
	after := cf.Placement().NumUsedServers()
	if after > before+2 {
		t.Fatalf("small tenants opened %d new servers; expected consolidation into mature bins", after-before)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDisableFirstStage(t *testing.T) {
	cfg := Config{Gamma: 2, K: 10, DisableFirstStage: true}
	cf := mustCubeFit(t, cfg)
	src, err := workload.NewLoadSource(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	placeAll(t, cf, workload.Take(src, 300))
	if st := cf.Stats(); st.FirstStageTenants != 0 {
		t.Fatalf("first stage used despite being disabled: %+v", st)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstStageReducesServerCount(t *testing.T) {
	src, err := workload.NewLoadSource(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	tenants := workload.Take(src, 2000)

	with := mustCubeFit(t, Config{Gamma: 2, K: 10})
	placeAll(t, with, tenants)
	without := mustCubeFit(t, Config{Gamma: 2, K: 10, DisableFirstStage: true})
	placeAll(t, without, tenants)

	if w, wo := with.Placement().NumUsedServers(), without.Placement().NumUsedServers(); w > wo {
		t.Fatalf("first stage increased server count: %d with vs %d without", w, wo)
	}
}

func TestTinyPoliciesBothValid(t *testing.T) {
	src, err := workload.NewLoadSource(0.05, 3) // all tenants tiny for K=10, γ=2
	if err != nil {
		t.Fatal(err)
	}
	tenants := workload.Take(src, 400)

	for _, policy := range []TinyPolicy{TinyClassKMinusOne, TinyMultiReplica} {
		cf := mustCubeFit(t, Config{Gamma: 2, K: 10, TinyPolicy: policy})
		placeAll(t, cf, tenants)
		if err := cf.Placement().Validate(); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
		if st := cf.Stats(); st.TinyTenants == 0 {
			t.Fatalf("policy %v: no tiny tenants recorded: %+v", policy, st)
		}
	}
}

func TestTinyAccumulationSharesSlots(t *testing.T) {
	// Many equal tiny tenants should accumulate several per slot rather
	// than opening a slot each: server count must be far below the
	// one-slot-per-tenant count.
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10, DisableFirstStage: true})
	const n = 100
	for i := 0; i < n; i++ {
		placeAll(t, cf, []packing.Tenant{{ID: packing.TenantID(i), Load: 0.02}}) // replicas 0.01
	}
	// Slot size for class K−1=9 is 1/10, so about 10 replicas accumulate
	// per slot: the 100 tenants consume about 10 cursor addresses. The
	// cube spreads those addresses over 2 bins in group 0 and up to 9 bins
	// in group 1 (one per slot digit), so roughly 11 servers — far below
	// the 2×100 a slot-per-tenant scheme would approach.
	used := cf.Placement().NumUsedServers()
	if used > 12 {
		t.Fatalf("tiny tenants used %d servers; accumulation is not happening", used)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveTenantFreesCapacity(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 2, K: 10})
	src, err := workload.NewLoadSource(1, 13)
	if err != nil {
		t.Fatal(err)
	}
	tenants := workload.Take(src, 200)
	placeAll(t, cf, tenants)
	load := cf.Placement().TotalLoad()

	for i := 0; i < 100; i++ {
		if err := cf.Remove(tenants[i].ID); err != nil {
			t.Fatalf("Remove(%d): %v", tenants[i].ID, err)
		}
	}
	if got := cf.Placement().TotalLoad(); got >= load {
		t.Fatalf("total load %v did not drop from %v", got, load)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatalf("placement invalid after removals: %v", err)
	}
	if cf.Placement().NumTenants() != 100 {
		t.Fatalf("tenants = %d, want 100", cf.Placement().NumTenants())
	}
	// Unknown tenant.
	if err := cf.Remove(99999); err == nil {
		t.Fatal("removing unknown tenant succeeded")
	}
	// Keep placing after removals; invariant must hold.
	more := workload.Take(src, 200)
	for i := range more {
		more[i].ID += 10000
	}
	placeAll(t, cf, more)
	if err := cf.Placement().Validate(); err != nil {
		t.Fatalf("placement invalid after reuse: %v", err)
	}
}

func TestPruneSlackPreservesRobustness(t *testing.T) {
	model := workload.DefaultLoadModel()
	dist, err := workload.NewUniform(1, 15)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewClientSource(model, dist, 5)
	if err != nil {
		t.Fatal(err)
	}
	tenants := workload.Take(src, 2000)
	minReplica := model.Load(1) / 2

	pruned := mustCubeFit(t, Config{Gamma: 2, K: 10, PruneSlack: minReplica * 0.99})
	placeAll(t, pruned, tenants)
	if err := pruned.Placement().Validate(); err != nil {
		t.Fatal(err)
	}

	// Pruning with a bound strictly below the minimum replica size must not
	// change the outcome.
	exact := mustCubeFit(t, Config{Gamma: 2, K: 10})
	placeAll(t, exact, tenants)
	if a, b := pruned.Placement().NumUsedServers(), exact.Placement().NumUsedServers(); a != b {
		t.Fatalf("pruning changed server count: %d vs %d", a, b)
	}
}

func TestGamma1Degenerate(t *testing.T) {
	// γ=1: no replication, no reserve; CubeFit degrades to a harmonic-like
	// packing and every packing is trivially "robust to 0 failures".
	cf := mustCubeFit(t, Config{Gamma: 1, K: 10})
	src, err := workload.NewLoadSource(1, 21)
	if err != nil {
		t.Fatal(err)
	}
	placeAll(t, cf, workload.Take(src, 300))
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range cf.Placement().Servers() {
		if !packing.WithinCapacity(s.Level()) {
			t.Fatalf("server %d over capacity: %v", s.ID(), s.Level())
		}
	}
}

func TestName(t *testing.T) {
	cf := mustCubeFit(t, DefaultConfig())
	if got := cf.Name(); got != "cubefit(γ=2,k=10)" {
		t.Fatalf("Name() = %q", got)
	}
}

func TestConfigAccessor(t *testing.T) {
	cf := mustCubeFit(t, Config{Gamma: 3, K: 7})
	if cfg := cf.Config(); cfg.Gamma != 3 || cfg.K != 7 {
		t.Fatalf("Config() = %+v", cfg)
	}
}

// TestBinLayout pins the bin table's footprint: a fleet holds one bin per
// server, so a bin stays pointer-free, which keeps the collector from
// scanning it, and within Go's 160-byte size class.
func TestBinLayout(t *testing.T) {
	assertPointerFree(t, "bin", reflect.TypeOf(bin{}))
	if size := unsafe.Sizeof(bin{}); size > 160 {
		t.Errorf("unsafe.Sizeof(bin{}) = %d B, want at most 160", size)
	}
}

// TestNodeLayout pins the Best-Fit index's node at 48 bytes with no
// pointer: every tree step reads one, from an array of one per server.
func TestNodeLayout(t *testing.T) {
	assertPointerFree(t, "node", reflect.TypeOf(node{}))
	if size := unsafe.Sizeof(node{}); size != 48 {
		t.Errorf("unsafe.Sizeof(node{}) = %d B, want 48", size)
	}
}

// assertPointerFree fails for every field of typ, recursively, whose kind
// holds a pointer.
func assertPointerFree(t *testing.T, path string, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		t.Errorf("field %s has kind %v, which holds a pointer", path, typ.Kind())
	case reflect.Array:
		assertPointerFree(t, path+"[]", typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			assertPointerFree(t, path+"."+f.Name, f.Type)
		}
	}
}
