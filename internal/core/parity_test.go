package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// parityWorkload drives one engine through a randomized admit/depart
// workload and returns the serialized final placement. Both engines are
// fed the identical decision stream (sizes, departures, ordering), so any
// divergence between the indexed and reference first stages shows up as a
// byte difference in the trace.
func parityWorkload(t *testing.T, cf *CubeFit, seed uint64, tenants int) []byte {
	t.Helper()
	// Departures with probability ~1/4 keep bins cycling through
	// retire/reactivate transitions, the index's hardest case.
	return runParity(t, cf, seed, tenants, 0.25, continuousTenants(cf.cfg.Gamma), nil)
}

// continuousTenants draws replica sizes spanning every class, including
// first-stage-friendly small replicas and tiny class-K ones; the tenant's
// total load γ·size stays within (0, 1].
func continuousTenants(gamma int) func(*rng.RNG, packing.TenantID) packing.Tenant {
	g := float64(gamma)
	return func(r *rng.RNG, id packing.TenantID) packing.Tenant {
		size := 0.001 + (0.9/g-0.001)*r.Float64()
		return packing.Tenant{ID: id, Load: size * g}
	}
}

// serviceTenant draws a tenant the way the service sees them: a
// uniform(1..15) client count through the default load model. Only 15
// replica sizes exist, so many bins share the exact same level and the
// server-ID tie-break decides.
func serviceTenant(r *rng.RNG, id packing.TenantID) packing.Tenant {
	c := r.IntRange(1, 15)
	return packing.Tenant{ID: id, Load: workload.DefaultLoadModel().Load(c), Clients: c}
}

// runParity admits tenants drawn by next, departs a random live tenant
// with probability departP after each admission, calls check (when
// non-nil) after every operation, and returns the serialized final
// placement.
func runParity(t *testing.T, cf *CubeFit, seed uint64, tenants int, departP float64,
	next func(*rng.RNG, packing.TenantID) packing.Tenant, check func()) []byte {
	t.Helper()
	r := rng.New(seed)
	live := make([]packing.TenantID, 0, tenants)
	for i := 0; i < tenants; i++ {
		tn := next(r, packing.TenantID(i+1))
		if err := cf.Place(tn); err != nil {
			t.Fatalf("seed %d: place tenant %d: %v", seed, tn.ID, err)
		}
		live = append(live, tn.ID)
		if check != nil {
			check()
		}
		if len(live) > 4 && r.Float64() < departP {
			victim := int(r.Uint64() % uint64(len(live)))
			id := live[victim]
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := cf.Remove(id); err != nil {
				t.Fatalf("seed %d: remove tenant %d: %v", seed, id, err)
			}
			if check != nil {
				check()
			}
		}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, cf.Placement()); err != nil {
		t.Fatalf("seed %d: trace: %v", seed, err)
	}
	return buf.Bytes()
}

// parityPair builds an indexed engine and its reference-scan twin.
func parityPair(t *testing.T, cfg Config) (indexed, reference *CubeFit) {
	t.Helper()
	indexed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reference, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reference.scanFirstStage = true
	return indexed, reference
}

// assertParity fails unless the two engines' traces, Stats and active
// bin counts agree.
func assertParity(t *testing.T, seed uint64, indexed, reference *CubeFit, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %d: indexed and reference first stages diverged (trace bytes differ)", seed)
	}
	if indexed.Stats() != reference.Stats() {
		t.Fatalf("seed %d: stats diverged: indexed %+v reference %+v",
			seed, indexed.Stats(), reference.Stats())
	}
	if indexed.NumActiveMatureBins() != reference.NumActiveMatureBins() {
		t.Fatalf("seed %d: active bin count diverged: indexed %d reference %d",
			seed, indexed.NumActiveMatureBins(), reference.NumActiveMatureBins())
	}
}

// parityK keeps (K−1)^γ cube sizes moderate at γ=4.
func parityK(gamma int) int {
	if gamma == 4 {
		return 5
	}
	return 10
}

// TestFirstStageIndexParity is the property test required by the fast-path
// index: across random workloads with departures, the indexed bestMFit and
// the reference linear scan must produce byte-identical placements and
// identical Stats at γ ∈ {2, 3, 4}. Two inputs: continuous random sizes
// spanning every class, and the service's shape — uniform(1..15) clients
// through the default load model, a few thousand tenants, 20% departures.
func TestFirstStageIndexParity(t *testing.T) {
	for _, gamma := range []int{2, 3, 4} {
		gamma := gamma
		cfg := Config{Gamma: gamma, K: parityK(gamma)}
		t.Run(fmt.Sprintf("gamma%d", gamma), func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				indexed, reference := parityPair(t, cfg)
				got := parityWorkload(t, indexed, seed, 300)
				want := parityWorkload(t, reference, seed, 300)
				assertParity(t, seed, indexed, reference, got, want)
			}
		})
		t.Run(fmt.Sprintf("service/gamma%d", gamma), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				indexed, reference := parityPair(t, cfg)
				got := runParity(t, indexed, seed, 3000, 0.2, serviceTenant, nil)
				want := runParity(t, reference, seed, 3000, 0.2, serviceTenant, nil)
				assertParity(t, seed, indexed, reference, got, want)
			}
		})
	}
}

// TestFitIndexStructure checks the invariants the fast path relies on,
// after every operation of both parity inputs: the index holds exactly
// the active bins; an in-order walk is Best-Fit order (level descending,
// server ID ascending); every node is filed under its bin's cached level,
// which is the server's level; every subtree slack maximum is exact;
// priorities form a heap; and no indexed bin has slack at or below
// PruneSlack.
func TestFitIndexStructure(t *testing.T) {
	for _, gamma := range []int{2, 3, 4} {
		for _, prune := range []float64{0, 0.05} {
			cfg := Config{Gamma: gamma, K: parityK(gamma), PruneSlack: prune}
			t.Run(fmt.Sprintf("gamma%d/prune%g", gamma, prune), func(t *testing.T) {
				cf := mustCubeFit(t, cfg)
				check := func() { checkFitIndex(t, cf) }
				check() // the empty index
				runParity(t, cf, 42, 400, 0.25, continuousTenants(gamma), check)
				runParity(t, cf, 43, 600, 0.2, func(r *rng.RNG, id packing.TenantID) packing.Tenant {
					return serviceTenant(r, id+1000) // after the first run's IDs
				}, check)
			})
		}
	}
}

// checkFitIndex verifies the Best-Fit index of cf against a recomputation
// from the bins and their servers: one node per server with its hashed
// priority, and a tree over exactly the active bins.
func checkFitIndex(t *testing.T, cf *CubeFit) {
	t.Helper()
	nodes := cf.index.nodes
	if len(nodes) != len(cf.bins) {
		t.Fatalf("index has %d nodes for %d bins", len(nodes), len(cf.bins))
	}
	var order []int32
	var walk func(n int32, parentPrio uint32) float64
	walk = func(n int32, parentPrio uint32) float64 {
		if n == noBin {
			return noSlack
		}
		nd := nodes[n]
		if nd.prio != binPrio(int(n)) {
			t.Fatalf("node %d: priority %d, want binPrio %d", n, nd.prio, binPrio(int(n)))
		}
		if nd.prio > parentPrio {
			t.Fatalf("node %d: priority %d above its parent's %d", n, nd.prio, parentPrio)
		}
		left := walk(nd.left, nd.prio)
		order = append(order, n)
		right := walk(nd.right, nd.prio)
		if nd.leftMax != left || nd.rightMax != right {
			t.Fatalf("node %d: recorded child slack maxima (%v, %v), recomputed (%v, %v)",
				n, nd.leftMax, nd.rightMax, left, right)
		}
		return math.Max(nd.slack, math.Max(left, right))
	}
	walk(cf.index.root, math.MaxUint32)
	if len(order) != len(cf.active) {
		t.Fatalf("index holds %d bins, active list %d", len(order), len(cf.active))
	}
	for i, id := range order {
		b, nd := cf.bins[id], nodes[id]
		if b.activeIdx < 0 || cf.active[b.activeIdx] != b {
			t.Fatalf("bin %d: indexed but not active", id)
		}
		level := cf.p.Server(b.server).Level()
		if nd.key != b.level || b.level != level {
			t.Fatalf("bin %d: filed under %v, cached level %v, server level %v", id, nd.key, b.level, level)
		}
		if packing.FitsWithin(nd.slack, cf.cfg.PruneSlack) {
			t.Fatalf("bin %d: indexed with slack %v at or below PruneSlack %v", id, nd.slack, cf.cfg.PruneSlack)
		}
		if i > 0 {
			prev := order[i-1]
			if !precedes(nodes[prev].key, prev, nd.key, id) {
				t.Fatalf("in-order walk not Best-Fit order: bin %d (key %v) before bin %d (key %v)",
					prev, nodes[prev].key, id, nd.key)
			}
		}
	}
}
