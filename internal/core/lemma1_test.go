package core

import (
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
)

// sharedTenants counts tenants with replicas on both servers.
func sharedTenants(p *packing.Placement, a, b *packing.Server) int {
	n := 0
	for _, r := range a.Replicas() {
		if b.Hosts(r.Tenant) {
			n++
		}
	}
	return n
}

// TestLemma1SecondStage verifies Lemma 1 on pure second-stage packings:
// no two bins share replicas of more than one tenant when all tenants are
// in the same regular class.
func TestLemma1SecondStage(t *testing.T) {
	for _, gamma := range []int{2, 3} {
		for tau := 2; tau <= 4; tau++ {
			cfg := Config{Gamma: gamma, K: 10, DisableFirstStage: true}
			cf := mustCubeFit(t, cfg)
			// Loads such that replicas land exactly in class tau:
			// replica size in (1/(tau+gamma), 1/(tau+gamma-1)].
			size := 1 / float64(tau+gamma-1) // top of the class interval
			load := size * float64(gamma)
			if load > 1 {
				continue
			}
			n := 3 * tau * tau * tau // several full counter sweeps
			for i := 0; i < n; i++ {
				if err := cf.Place(packing.Tenant{ID: packing.TenantID(i), Load: load}); err != nil {
					t.Fatalf("γ=%d τ=%d: %v", gamma, tau, err)
				}
			}
			p := cf.Placement()
			servers := p.Servers()
			for i := 0; i < len(servers); i++ {
				for j := i + 1; j < len(servers); j++ {
					if got := sharedTenants(p, servers[i], servers[j]); got > 1 {
						t.Fatalf("γ=%d τ=%d: servers %d and %d share %d tenants",
							gamma, tau, i, j, got)
					}
				}
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("γ=%d τ=%d: %v", gamma, tau, err)
			}
		}
	}
}

// TestLemma1MixedClasses verifies the generalized pairwise-sharing bound on
// second-stage packings with mixed classes: any two servers share at most
// one tenant per class... in fact at most one tenant overall for regular
// classes, and at most one slot-group's load for tiny classes. We check
// the load form, which is what Theorem 1 needs: the shared load between any
// two servers is at most the larger of the two bins' slot sizes.
func TestLemma1MixedClassesSharedLoadBound(t *testing.T) {
	r := rng.New(4242)
	for _, gamma := range []int{2, 3} {
		cfg := Config{Gamma: gamma, K: 8, DisableFirstStage: true}
		cf := mustCubeFit(t, cfg)
		for i := 0; i < 600; i++ {
			load := 0.002 + r.Float64()*0.998
			if err := cf.Place(packing.Tenant{ID: packing.TenantID(i), Load: load}); err != nil {
				t.Fatalf("γ=%d: %v", gamma, err)
			}
		}
		p := cf.Placement()
		for _, s := range p.Servers() {
			slotSize := 1.0 // class-1 slot size upper bound
			if b := cf.bins[s.ID()]; b != nil {
				slotSize = cf.cfg.SlotSize(int(b.tau))
			}
			s.EachShared(func(j int, v float64) {
				other := cf.cfg.SlotSize(int(cf.bins[j].tau))
				bound := slotSize
				if other > bound {
					bound = other
				}
				if !packing.FitsWithin(v, bound) {
					t.Fatalf("γ=%d: servers %d,%d share load %v > slot bound %v",
						gamma, s.ID(), j, v, bound)
				}
			})
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("γ=%d: %v", gamma, err)
		}
	}
}
