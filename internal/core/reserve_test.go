package core

import (
	"bytes"
	"fmt"
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
)

// TestReferenceReserveParity is the byte-identical property test required
// by the incremental reserve cache: across random workloads with
// departures, the digest-backed m-fit path and the reference shared-load
// recomputation must produce byte-identical placements and identical
// Stats at γ ∈ {2, 3, 4} — the same contract the first-stage index parity
// test enforces for its knob.
func TestReferenceReserveParity(t *testing.T) {
	for _, gamma := range []int{2, 3, 4} {
		gamma := gamma
		t.Run(fmt.Sprintf("gamma%d", gamma), func(t *testing.T) {
			k := 10
			if gamma == 4 {
				k = 5 // keep (K−1)^γ cube sizes moderate
			}
			for seed := uint64(1); seed <= 8; seed++ {
				cached, err := New(Config{Gamma: gamma, K: k})
				if err != nil {
					t.Fatal(err)
				}
				reference, err := New(Config{Gamma: gamma, K: k})
				if err != nil {
					t.Fatal(err)
				}
				reference.cachedReserve = false
				tenants := 300
				got := parityWorkload(t, cached, seed, tenants)
				want := parityWorkload(t, reference, seed, tenants)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: cached and reference reserve paths diverged (trace bytes differ)", seed)
				}
				if cached.Stats() != reference.Stats() {
					t.Fatalf("seed %d: stats diverged: cached %+v reference %+v",
						seed, cached.Stats(), reference.Stats())
				}
				if cached.NumActiveMatureBins() != reference.NumActiveMatureBins() {
					t.Fatalf("seed %d: active bin count diverged: cached %d reference %d",
						seed, cached.NumActiveMatureBins(), reference.NumActiveMatureBins())
				}
			}
		})
	}
}

// checkDigests asserts, for every open server, the reserve-cache contract:
// the digest's top-(γ−1) sum equals packing.TopShared exactly (not within
// a tolerance — the parity discipline requires bit equality), the digest
// is sorted descending, holds only live shared entries, and when
// saturated every untracked peer is bounded by the digest minimum.
func checkDigests(t *testing.T, cf *CubeFit, op string) {
	t.Helper()
	k := cf.cfg.Gamma - 1
	for _, b := range cf.bins {
		d := &b.digest
		srv := cf.p.Server(b.server)
		if got, want := d.topSum(k), srv.TopShared(k); got != want {
			t.Fatalf("%s: server %d: digest top-%d sum %v != TopShared %v", op, b.server, k, got, want)
		}
		if d.sat && d.n != digestSize {
			t.Fatalf("%s: server %d: saturated digest with %d entries", op, b.server, d.n)
		}
		if d.n > srv.NumShared() {
			t.Fatalf("%s: server %d: digest holds %d entries, server shares with %d", op, b.server, d.n, srv.NumShared())
		}
		if !d.sat && d.n != srv.NumShared() {
			t.Fatalf("%s: server %d: unsaturated digest holds %d of %d shared entries", op, b.server, d.n, srv.NumShared())
		}
		for i := 0; i < d.n; i++ {
			if i > 0 && d.v[i] > d.v[i-1] {
				t.Fatalf("%s: server %d: digest not descending at %d", op, b.server, i)
			}
			if got := srv.SharedWith(int(d.id[i])); got != d.v[i] {
				t.Fatalf("%s: server %d: digest peer %d holds %v, map holds %v", op, b.server, d.id[i], d.v[i], got)
			}
		}
		if d.sat {
			min := d.v[d.n-1]
			srv.EachShared(func(j int, v float64) {
				for i := 0; i < d.n; i++ {
					if int(d.id[i]) == j {
						return
					}
				}
				if v > min {
					t.Fatalf("%s: server %d: untracked peer %d load %v exceeds digest minimum %v",
						op, b.server, j, v, min)
				}
			})
		}
	}
}

// TestReserveDigestMatchesTopShared is the exact-equality churn gate: a
// randomized place/unplace/depart run checking after every operation that
// every server's digest answers top-(γ−1) queries with the exact value
// packing.TopShared computes from the shared loads (mirroring the headroom
// incremental==exhaustive gate). CI runs it under the race detector like
// the rest of the tree.
func TestReserveDigestMatchesTopShared(t *testing.T) {
	for _, gamma := range []int{2, 3, 4} {
		gamma := gamma
		t.Run(fmt.Sprintf("gamma%d", gamma), func(t *testing.T) {
			k := 10
			if gamma == 4 {
				k = 5
			}
			cf, err := New(Config{Gamma: gamma, K: k})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(99)
			live := make([]packing.TenantID, 0, 256)
			tenants := 250
			if testing.Short() {
				tenants = 80
			}
			for i := 0; i < tenants; i++ {
				size := 0.001 + (0.9/float64(gamma)-0.001)*r.Float64()
				id := packing.TenantID(i + 1)
				if err := cf.Place(packing.Tenant{ID: id, Load: size * float64(gamma)}); err != nil {
					t.Fatalf("place tenant %d: %v", id, err)
				}
				live = append(live, id)
				checkDigests(t, cf, fmt.Sprintf("place %d", id))
				if len(live) > 4 && r.Float64() < 0.3 {
					victim := int(r.Uint64() % uint64(len(live)))
					id := live[victim]
					live[victim] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := cf.Remove(id); err != nil {
						t.Fatalf("remove tenant %d: %v", id, err)
					}
					checkDigests(t, cf, fmt.Sprintf("remove %d", id))
				}
			}
		})
	}
}

// TestAdjustedTopSumMatchesReference cross-checks the digest's adjusted
// query — the m-fit inner loop — against topSharedAdjusted on every
// server of a churned placement, for random bump sets and deltas.
func TestAdjustedTopSumMatchesReference(t *testing.T) {
	for _, gamma := range []int{2, 3, 4} {
		gamma := gamma
		t.Run(fmt.Sprintf("gamma%d", gamma), func(t *testing.T) {
			k := 10
			if gamma == 4 {
				k = 5
			}
			cf, err := New(Config{Gamma: gamma, K: k})
			if err != nil {
				t.Fatal(err)
			}
			parityWorkload(t, cf, 7, 300)
			r := rng.New(13)
			n := cf.p.NumServers()
			for _, b := range cf.bins {
				srv := cf.p.Server(b.server)
				for trial := 0; trial < 4; trial++ {
					bump := make([]int, 0, gamma-1)
					for len(bump) < gamma-1 {
						c := int(r.Uint64() % uint64(n+2)) // may name absent peers
						if c == b.server {
							continue
						}
						dup := false
						for _, e := range bump {
							dup = dup || e == c
						}
						if !dup {
							bump = append(bump, c)
						}
					}
					delta := 0.001 + 0.2*r.Float64()
					got := b.digest.adjustedTopSum(gamma-1, bump, delta, srv)
					want := topSharedAdjusted(srv, gamma-1, bump, delta)
					if got != want {
						t.Fatalf("server %d bump %v delta %v: digest %v != reference %v",
							b.server, bump, delta, got, want)
					}
				}
			}
		})
	}
}
