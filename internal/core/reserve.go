package core

import "cubefit/internal/packing"

// The incremental reserve cache: every bin carries a small sorted digest
// of its server's largest pairwise shared loads, maintained from the
// shared-load deltas packing.Placement reports through SetSharedHook. The
// m-fit reserve of Theorem 1 — the sum of the top γ−1 shared loads — then
// falls out of the digest as an O(γ) sum instead of a scan over all the
// server's shared loads, which is what makes per-probe cost independent
// of how many peers a server shares tenants with.
//
// Invariant (the churn property test asserts it after every operation):
// the digest holds the `n` largest shared loads of the server, sorted
// descending, and when `sat` is set every untracked peer's shared load is
// at most the digest minimum. `sat` implies n == digestSize, so any top-k
// query with k ≤ digestSize is answered exactly. The only operation that
// cannot be repaired locally — a tracked entry shrinking below the digest
// minimum while untracked peers exist — rebuilds the digest from the
// shared loads; that happens on departures and rollbacks only, never on the
// admission probe path.
//
// Determinism: sums are always taken over the digest's descending value
// order, which is the same value sequence packing.TopShared and
// topSharedAdjusted produce, so the cached engine is bit-identical to the
// reference (ties at the digest boundary may retain either peer ID, but
// the retained value multiset — and hence every sum — is identical).

// digestSize is the digest capacity. The cached reserve path needs
// γ−1 ≤ digestSize to answer top-(γ−1) queries exactly, and the adjusted
// query additionally bumps up to γ−1 peers; 8 covers every configuration
// up to γ=9, far beyond the paper's γ ∈ {2, 3}.
const digestSize = 8

// topKDigest tracks the largest shared loads of one server, descending.
type topKDigest struct {
	n   int  // live entries in id/v
	sat bool // untracked peers exist (and are ≤ v[n-1]); implies n == digestSize
	id  [digestSize]int32
	v   [digestSize]float64
}

// update repairs the digest after the server's shared load with peer
// changed to v (0 means the entry was removed). srv is the digest's own
// server, consulted only on the rebuild path.
//
//cubefit:hotpath
func (d *topKDigest) update(peer int, v float64, srv *packing.Server) {
	i := -1
	for j := 0; j < d.n; j++ {
		if int(d.id[j]) == peer {
			i = j
			break
		}
	}
	if i < 0 {
		// Untracked peer: removals and decreases stay below the digest
		// minimum by the invariant; an increase enters if it beats the
		// minimum or the digest has room.
		if v == 0 { // exact: packing deletes negligible entries and reports exactly 0
			return
		}
		if d.n < digestSize {
			d.insert(peer, v)
			return
		}
		if v > d.v[digestSize-1] {
			// Evict the minimum; the evicted value is ≥ every untracked
			// load, so the invariant survives with sat set.
			d.n--
			d.insert(peer, v)
		}
		d.sat = true
		return
	}
	switch {
	case v == 0: // exact: packing deletes negligible entries and reports exactly 0
		// Tracked entry removed. With untracked peers some may now belong
		// in the digest; rebuild. Otherwise shift the tail up.
		if d.sat {
			d.rebuild(srv)
			return
		}
		copy(d.id[i:d.n-1], d.id[i+1:d.n])
		copy(d.v[i:d.n-1], d.v[i+1:d.n])
		d.n--
	case v >= d.v[i]:
		// Increase: bubble the entry toward the front.
		for i > 0 && v > d.v[i-1] {
			d.id[i], d.v[i] = d.id[i-1], d.v[i-1]
			i--
		}
		d.id[i], d.v[i] = int32(peer), v
	default:
		// Decrease: if the new value dips below the digest minimum while
		// untracked peers exist, one of them may now outrank it — rebuild.
		// (i == n-1 compares v against the entry's own old value, which a
		// decrease always fails, so the minimum entry rebuilds too.)
		if d.sat && v < d.v[d.n-1] {
			d.rebuild(srv)
			return
		}
		for i < d.n-1 && v < d.v[i+1] {
			d.id[i], d.v[i] = d.id[i+1], d.v[i+1]
			i++
		}
		d.id[i], d.v[i] = int32(peer), v
	}
}

// insert places a new entry into the sorted arrays (caller guarantees
// room). Strict comparison keeps equal values in arrival order; only the
// value multiset matters for the sums the digest serves.
//
//cubefit:hotpath
func (d *topKDigest) insert(peer int, v float64) {
	i := d.n
	for i > 0 && v > d.v[i-1] {
		d.id[i], d.v[i] = d.id[i-1], d.v[i-1]
		i--
	}
	d.id[i], d.v[i] = int32(peer), v
	d.n++
}

// rebuild repopulates the digest from the server's shared loads: the
// digestSize largest loads, descending. Runs only when a tracked entry
// shrank or vanished while untracked peers existed (departures and
// rollbacks), so the admission probe path never pays the scan.
func (d *topKDigest) rebuild(srv *packing.Server) {
	d.n = 0
	d.sat = false
	//cubefit:vet-allow hotpath -- the callback is passed to EachShared, which only invokes it inline over the shared loads; it does not escape
	srv.EachShared(func(j int, v float64) {
		if d.n < digestSize {
			d.insert(j, v)
			return
		}
		if v > d.v[digestSize-1] {
			d.n--
			d.insert(j, v)
		}
	})
	d.sat = srv.NumShared() > d.n
}

// topSum returns the sum of the k largest shared loads — the Theorem 1
// reserve for k = γ−1 — summed in descending order, bit-identical to
// packing.TopShared for every k ≤ digestSize.
//
//cubefit:hotpath
func (d *topKDigest) topSum(k int) float64 {
	if k > d.n {
		k = d.n
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += d.v[i]
	}
	return sum
}

// adjustedTopSum returns the sum of the k largest shared loads after
// hypothetically adding delta to the load shared with each server in bump
// (absent peers count as delta) — the cached equivalent of
// topSharedAdjusted. Exact because sat implies n == digestSize ≥ k, so
// the digest plus the bumped peers dominates every untracked load; ties
// at the boundary change only which equal value is counted, not the sum.
//
//cubefit:hotpath
func (d *topKDigest) adjustedTopSum(k int, bump []int, delta float64, srv *packing.Server) float64 {
	if k <= 0 {
		return 0
	}
	var top [digestSize]float64
	if k > len(top) {
		k = len(top)
	}
	//cubefit:vet-allow hotpath -- push never escapes: it is only called directly below, so it stays on the stack (the m-fit benchmark reports 0 allocs/op)
	push := func(v float64) {
		for i := 0; i < k; i++ {
			if v > top[i] {
				copy(top[i+1:k], top[i:k-1])
				top[i] = v
				break
			}
		}
	}
	var bumped [digestSize]bool // bump is at most γ−1 ≤ digestSize entries
	for i := 0; i < d.n; i++ {
		v := d.v[i]
		for bi, b := range bump {
			if b == int(d.id[i]) {
				v += delta
				bumped[bi] = true
				break
			}
		}
		push(v)
	}
	for bi, b := range bump {
		if !bumped[bi] {
			// Peer outside the digest: its true load is at most the digest
			// minimum, so only its bumped value can reach the top k.
			push(srv.SharedWith(b) + delta)
		}
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += top[i]
	}
	return sum
}
