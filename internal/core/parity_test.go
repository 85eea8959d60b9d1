package core

import (
	"bytes"
	"fmt"
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/trace"
)

// parityWorkload drives one engine through a randomized admit/depart
// workload and returns the serialized final placement. Both engines are
// fed the identical decision stream (sizes, departures, ordering), so any
// divergence between the indexed and reference first stages shows up as a
// byte difference in the trace.
func parityWorkload(t *testing.T, cf *CubeFit, seed uint64, tenants int) []byte {
	t.Helper()
	r := rng.New(seed)
	live := make([]packing.TenantID, 0, tenants)
	for i := 0; i < tenants; i++ {
		// Sizes spanning every class, including first-stage-friendly small
		// replicas and tiny class-K ones; the tenant's total load γ·size
		// must stay within (0, 1].
		size := 0.001 + (0.9/float64(cf.cfg.Gamma)-0.001)*r.Float64()
		id := packing.TenantID(i + 1)
		if err := cf.Place(packing.Tenant{ID: id, Load: size * float64(cf.cfg.Gamma)}); err != nil {
			t.Fatalf("seed %d: place tenant %d: %v", seed, id, err)
		}
		live = append(live, id)
		// Departures with probability ~1/4 keep bins cycling through
		// retire/reactivate transitions, the index's hardest case.
		if len(live) > 4 && r.Float64() < 0.25 {
			victim := int(r.Uint64() % uint64(len(live)))
			id := live[victim]
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := cf.Remove(id); err != nil {
				t.Fatalf("seed %d: remove tenant %d: %v", seed, id, err)
			}
		}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, cf.Placement()); err != nil {
		t.Fatalf("seed %d: trace: %v", seed, err)
	}
	return buf.Bytes()
}

// TestFirstStageIndexParity is the property test required by the fast-path
// index: across random workloads with departures, the indexed bestMFit and
// the reference linear scan must produce byte-identical placements and
// identical Stats at γ ∈ {2, 3, 4}.
func TestFirstStageIndexParity(t *testing.T) {
	for _, gamma := range []int{2, 3, 4} {
		gamma := gamma
		t.Run(fmt.Sprintf("gamma%d", gamma), func(t *testing.T) {
			k := 10
			if gamma == 4 {
				k = 5 // keep (K−1)^γ cube sizes moderate
			}
			for seed := uint64(1); seed <= 8; seed++ {
				indexed, err := New(Config{Gamma: gamma, K: k})
				if err != nil {
					t.Fatal(err)
				}
				reference, err := New(Config{Gamma: gamma, K: k})
				if err != nil {
					t.Fatal(err)
				}
				reference.scanFirstStage = true
				tenants := 300
				got := parityWorkload(t, indexed, seed, tenants)
				want := parityWorkload(t, reference, seed, tenants)
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
		})
	}
}

// TestLevelIndexMirrorsActive checks the structural invariant the fast
// path relies on: after an arbitrary workload, the level index holds
// exactly the active bins, each under the bucket of its cached level.
func TestLevelIndexMirrorsActive(t *testing.T) {
	cf, err := New(Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	parityWorkload(t, cf, 42, 400)
	indexed := 0
	for q := range cf.index.buckets {
		bucket := &cf.index.buckets[q]
		for pos, b := range bucket.bins {
			indexed++
			if b.slack > bucket.slackUB {
				t.Errorf("bin %d: slack %v exceeds bucket %d slack bound %v",
					b.server, b.slack, q, bucket.slackUB)
			}
			if free := 1 - b.level; free > bucket.freeUB {
				t.Errorf("bin %d: free %v exceeds bucket %d free bound %v",
					b.server, free, q, bucket.freeUB)
			}
			if b.bucket != q || b.bucketPos != pos {
				t.Fatalf("bin %d: stored position (%d,%d) but fields say (%d,%d)",
					b.server, q, pos, b.bucket, b.bucketPos)
			}
			if levelBucket(b.level) != q {
				t.Errorf("bin %d: level %v belongs in bucket %d, found in %d",
					b.server, b.level, levelBucket(b.level), q)
			}
			if b.activeIdx < 0 {
				t.Errorf("bin %d: indexed but not active", b.server)
			}
		}
	}
	if indexed != len(cf.active) {
		t.Fatalf("index holds %d bins, active list %d", indexed, len(cf.active))
	}
	for _, b := range cf.active {
		if b.bucket < 0 {
			t.Errorf("bin %d: active but not indexed", b.server)
		}
	}
}

func TestLevelBucketBounds(t *testing.T) {
	cases := []struct {
		level float64
		want  int
	}{
		{-0.1, 0},
		{0, 0},
		{0.5, levelBuckets / 2},
		{0.999999, levelBuckets - 1},
		{1, levelBuckets - 1},
		{1.5, levelBuckets - 1},
	}
	for _, c := range cases {
		if got := levelBucket(c.level); got != c.want {
			t.Errorf("levelBucket(%v) = %d, want %d", c.level, got, c.want)
		}
	}
}
