package core

import "math"

// The first-stage fast path: an ordered index over the active mature bins.
// Best Fit wants the first bin, in Best-Fit order (level descending, then
// server ID ascending), that m-fits the replica. The index is a treap over
// the active bins keyed by that order and augmented with the maximum
// usable slack 1 − level − reserve of each subtree, so a probe walks the
// bins in order and skips every subtree whose maximum slack cannot hold
// the replica; the m-fit test only runs on bins that pass the slack filter
// (see bestMFitIndexed). This is the O(log n) Best Fit of D. S. Johnson
// ("Fast algorithms for bin packing", JCSS 1974) with the m-fit filter on
// top.
//
// The tree is threaded through the bins themselves: child links are
// server IDs (int32, noBin for none) into CubeFit.bins, so rebalancing
// writes no pointers, and each node records the slack maxima of its two
// child subtrees, so neither maintenance nor a probe touches a child that
// is not on its path. Priorities hash the server ID, so the shape depends
// only on the set of keys and involves no random source. A node stays
// filed under the level it was inserted with (bin.key) until refreshBin
// re-keys it; a refresh that leaves the level unchanged only re-pulls the
// slack maxima on the node's path.
//
// The index is repaired on the same transitions that maintain the active
// list — refreshBin after placements and departures, maturing, retiring —
// and holds exactly the bins of CubeFit.active. The reference linear scan
// (bestMFitScan) remains as a test oracle; the parity property test
// asserts both produce byte-identical placements.

// noBin is the nil child link.
const noBin int32 = -1

// noSlack is the slack maximum of an empty subtree: no replica fits it.
const noSlack = -math.MaxFloat64

// fitIndex is the Best-Fit treap. Its methods take CubeFit.bins, which the
// child links index.
type fitIndex struct {
	root int32
}

// binPrio is the treap priority of a server: a 64-bit finalizer hash of
// its ID, so priorities look random without a random source.
func binPrio(server int) uint32 {
	x := uint64(server) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return uint32((x ^ x>>31) >> 32)
}

// precedes reports whether a bin filed under key with the given server ID
// comes before n in Best-Fit order: higher key first, lower server ID on
// equal keys.
//
//cubefit:hotpath
func precedes(key float64, server int, n *bin) bool {
	//cubefit:vet-allow floatcmp -- exact key order; equal levels fall through to the server-ID tie-break
	return key > n.key || (key == n.key && server < n.server)
}

// subMax is the slack maximum of the subtree rooted at n. Plain compares
// suffice because slacks are never NaN; the builtin max, which must
// order NaNs and signed zeros, measured slower on this path.
//
//cubefit:hotpath
func subMax(bins []*bin, n int32) float64 {
	if n == noBin {
		return noSlack
	}
	b := bins[n]
	m := b.slack
	if b.leftMax > m {
		m = b.leftMax
	}
	if b.rightMax > m {
		m = b.rightMax
	}
	return m
}

// setLeft links n as b's left subtree and records its slack maximum.
//
//cubefit:hotpath
func setLeft(bins []*bin, b *bin, n int32) {
	b.left, b.leftMax = n, subMax(bins, n)
}

// setRight links n as b's right subtree and records its slack maximum.
//
//cubefit:hotpath
func setRight(bins []*bin, b *bin, n int32) {
	b.right, b.rightMax = n, subMax(bins, n)
}

// insert files an active bin under its current cached level.
//
//cubefit:hotpath
func (ix *fitIndex) insert(bins []*bin, b *bin) {
	b.key = b.level
	ix.root = insertAt(bins, ix.root, b)
}

// insertAt inserts b into the subtree rooted at n and returns the new
// subtree root: b descends by key until its priority outranks the node
// in its way, then splits that subtree around itself.
//
//cubefit:hotpath
func insertAt(bins []*bin, n int32, b *bin) int32 {
	if n == noBin || b.prio > bins[n].prio {
		lo, hi := split(bins, n, b)
		setLeft(bins, b, lo)
		setRight(bins, b, hi)
		return int32(b.server)
	}
	nd := bins[n]
	if precedes(b.key, b.server, nd) {
		setLeft(bins, nd, insertAt(bins, nd.left, b))
	} else {
		setRight(bins, nd, insertAt(bins, nd.right, b))
	}
	return n
}

// split partitions the subtree rooted at n into the nodes before b's key
// and the nodes after it.
//
//cubefit:hotpath
func split(bins []*bin, n int32, b *bin) (lo, hi int32) {
	if n == noBin {
		return noBin, noBin
	}
	nd := bins[n]
	if precedes(nd.key, nd.server, b) {
		r, hi := split(bins, nd.right, b)
		setRight(bins, nd, r)
		return n, hi
	}
	lo, l := split(bins, nd.left, b)
	setLeft(bins, nd, l)
	return lo, n
}

// remove takes the bin out of the tree, finding it under the key it was
// filed with.
//
//cubefit:hotpath
func (ix *fitIndex) remove(bins []*bin, b *bin) {
	ix.root = removeAt(bins, ix.root, b)
	b.left, b.right = noBin, noBin
}

// removeAt removes b from the subtree rooted at n (which holds it) and
// returns the new subtree root.
//
//cubefit:hotpath
func removeAt(bins []*bin, n int32, b *bin) int32 {
	nd := bins[n]
	if nd == b {
		return merge(bins, b.left, b.right)
	}
	if precedes(b.key, b.server, nd) {
		setLeft(bins, nd, removeAt(bins, nd.left, b))
	} else {
		setRight(bins, nd, removeAt(bins, nd.right, b))
	}
	return n
}

// merge joins two subtrees where every node of lo precedes every node of
// hi, keeping the higher priority on top.
//
//cubefit:hotpath
func merge(bins []*bin, lo, hi int32) int32 {
	if lo == noBin {
		return hi
	}
	if hi == noBin {
		return lo
	}
	if l := bins[lo]; l.prio > bins[hi].prio {
		setRight(bins, l, merge(bins, l.right, hi))
		return lo
	}
	h := bins[hi]
	setLeft(bins, h, merge(bins, lo, h.left))
	return hi
}

// update repairs the tree after refreshBin recomputed the bin's level and
// slack. A changed level re-keys the node: it is unfiled under its old key
// and filed under the new one. An unchanged level re-pulls the maxima on
// the node's path — a departure can raise the slack in place, and the
// pruning must see it.
//
//cubefit:hotpath
func (ix *fitIndex) update(bins []*bin, b *bin) {
	//cubefit:vet-allow floatcmp -- exact: the node is filed under this very value until re-keyed
	if b.level != b.key {
		ix.remove(bins, b)
		ix.insert(bins, b)
		return
	}
	repull(bins, ix.root, b)
}

// repull refreshes the recorded child maxima on the path from n down to b.
//
//cubefit:hotpath
func repull(bins []*bin, n int32, b *bin) {
	nd := bins[n]
	if nd == b {
		return
	}
	if precedes(b.key, b.server, nd) {
		repull(bins, nd.left, b)
		nd.leftMax = subMax(bins, nd.left)
	} else {
		repull(bins, nd.right, b)
		nd.rightMax = subMax(bins, nd.right)
	}
}
