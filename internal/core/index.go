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
// The tree lives in one dense node array indexed by server ID, 48 bytes
// per node with no pointer: child links are server IDs (int32, noBin for
// none), so rebalancing writes no pointers, a tree step reads one node
// and no bin, and each node records the slack maxima of its two child
// subtrees, so neither maintenance nor a probe touches a child that is
// not on its path. Priorities hash the server ID, so the shape depends
// only on the set of keys and involves no random source. A node stays
// filed under the level it was inserted with (node.key) until refreshBin
// re-keys it; a refresh that leaves the level unchanged only re-pulls the
// slack maxima on the node's path, and only if the slack changed.
//
// The index is repaired on the same transitions that maintain the active
// list — refreshBin after placements and departures, maturing, retiring —
// and holds exactly the bins of CubeFit.active. Within one admission the
// first stage defers the refresh of the tenant's hosts until its last
// replica has landed (tryFirstStage); the search skips those hosts, so
// their stale entries cannot change its choice. The reference linear scan
// (bestMFitScan) remains as a test oracle; the parity property test
// asserts both produce byte-identical placements.

// noBin is the nil child link.
const noBin int32 = -1

// noSlack is the slack maximum of an empty subtree: no replica fits it.
const noSlack = -math.MaxFloat64

// node is one server's entry in the Best-Fit treap (TestNodeLayout pins
// it at 48 bytes with no pointer). Every server has one; only the active
// bins' nodes are linked into the tree.
type node struct {
	key      float64 // the level the node is filed under
	slack    float64 // 1 − level − reserve as of the server's last refreshBin
	leftMax  float64 // the largest slack in the left subtree
	rightMax float64 // the largest slack in the right subtree
	left     int32   // child server IDs, noBin for none
	right    int32
	prio     uint32
}

// fitIndex is the Best-Fit treap: its root and the node of every server.
type fitIndex struct {
	root  int32
	nodes []node
}

// open adds the node of a newly opened server, which must be the next
// server ID. An empty server's slack is 1; refreshBin runs only once it
// hosts a replica.
func (ix *fitIndex) open(server int) {
	ix.nodes = append(ix.nodes, node{slack: 1, left: noBin, right: noBin, prio: binPrio(server)})
}

// binPrio is the treap priority of a server: a 64-bit finalizer hash of
// its ID, so priorities look random without a random source.
func binPrio(server int) uint32 {
	x := uint64(server) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return uint32((x ^ x>>31) >> 32)
}

// precedes reports whether server id filed under key comes before server
// n filed under nkey in Best-Fit order: higher key first, lower server ID
// on equal keys.
//
//cubefit:hotpath
func precedes(key float64, id int32, nkey float64, n int32) bool {
	//cubefit:vet-allow floatcmp -- exact key order; equal levels fall through to the server-ID tie-break
	return key > nkey || (key == nkey && id < n)
}

// subMax is the slack maximum of the subtree rooted at n. Plain compares
// suffice because slacks are never NaN; the builtin max, which must
// order NaNs and signed zeros, measured slower on this path.
//
//cubefit:hotpath
func subMax(nodes []node, n int32) float64 {
	if n == noBin {
		return noSlack
	}
	nd := &nodes[n]
	m := nd.slack
	if nd.leftMax > m {
		m = nd.leftMax
	}
	if nd.rightMax > m {
		m = nd.rightMax
	}
	return m
}

// setLeft links n as nd's left subtree and records its slack maximum.
//
//cubefit:hotpath
func setLeft(nodes []node, nd *node, n int32) {
	nd.left, nd.leftMax = n, subMax(nodes, n)
}

// setRight links n as nd's right subtree and records its slack maximum.
//
//cubefit:hotpath
func setRight(nodes []node, nd *node, n int32) {
	nd.right, nd.rightMax = n, subMax(nodes, n)
}

// insert files server id's node under level.
//
//cubefit:hotpath
func (ix *fitIndex) insert(id int32, level float64) {
	ix.nodes[id].key = level
	ix.root = insertAt(ix.nodes, ix.root, id)
}

// insertAt inserts node id into the subtree rooted at n and returns the
// new subtree root: the node descends by key until its priority outranks
// the node in its way, then splits that subtree around itself.
//
//cubefit:hotpath
func insertAt(nodes []node, n, id int32) int32 {
	x := &nodes[id]
	if n == noBin || x.prio > nodes[n].prio {
		lo, hi := split(nodes, n, x.key, id)
		setLeft(nodes, x, lo)
		setRight(nodes, x, hi)
		return id
	}
	nd := &nodes[n]
	if precedes(x.key, id, nd.key, n) {
		setLeft(nodes, nd, insertAt(nodes, nd.left, id))
	} else {
		setRight(nodes, nd, insertAt(nodes, nd.right, id))
	}
	return n
}

// split partitions the subtree rooted at n into the nodes before server id
// filed under key and the nodes after it.
//
//cubefit:hotpath
func split(nodes []node, n int32, key float64, id int32) (lo, hi int32) {
	if n == noBin {
		return noBin, noBin
	}
	nd := &nodes[n]
	if precedes(nd.key, n, key, id) {
		r, hi := split(nodes, nd.right, key, id)
		setRight(nodes, nd, r)
		return n, hi
	}
	lo, l := split(nodes, nd.left, key, id)
	setLeft(nodes, nd, l)
	return lo, n
}

// remove takes server id's node out of the tree, finding it under the key
// it was filed with.
//
//cubefit:hotpath
func (ix *fitIndex) remove(id int32) {
	x := &ix.nodes[id]
	ix.root = removeAt(ix.nodes, ix.root, x.key, id)
	x.left, x.right = noBin, noBin
}

// removeAt removes node id, filed under key, from the subtree rooted at n
// (which holds it) and returns the new subtree root.
//
//cubefit:hotpath
func removeAt(nodes []node, n int32, key float64, id int32) int32 {
	nd := &nodes[n]
	if n == id {
		return merge(nodes, nd.left, nd.right)
	}
	if precedes(key, id, nd.key, n) {
		setLeft(nodes, nd, removeAt(nodes, nd.left, key, id))
	} else {
		setRight(nodes, nd, removeAt(nodes, nd.right, key, id))
	}
	return n
}

// merge joins two subtrees where every node of lo precedes every node of
// hi, keeping the higher priority on top.
//
//cubefit:hotpath
func merge(nodes []node, lo, hi int32) int32 {
	if lo == noBin {
		return hi
	}
	if hi == noBin {
		return lo
	}
	if l := &nodes[lo]; l.prio > nodes[hi].prio {
		setRight(nodes, l, merge(nodes, l.right, hi))
		return lo
	}
	h := &nodes[hi]
	setLeft(nodes, h, merge(nodes, lo, h.left))
	return hi
}

// update repairs the tree after refreshBin recomputed server id's level
// and wrote its slack into the node, which held prev before. A changed
// level re-keys the node: it is unfiled under its old key and filed under
// the new one. An unchanged level with a changed slack re-pulls the
// maxima on the node's path — a departure can raise the slack in place,
// and the pruning must see it. A node whose key and slack are both
// unchanged leaves the tree as it is; a first-stage fallback's unplace
// restores most of its hosts exactly.
//
//cubefit:hotpath
func (ix *fitIndex) update(id int32, level, prev float64) {
	nd := &ix.nodes[id]
	switch {
	//cubefit:vet-allow floatcmp -- exact: the node is filed under this very value until re-keyed
	case level != nd.key:
		ix.remove(id)
		ix.insert(id, level)
	//cubefit:vet-allow floatcmp -- exact: the recorded maxima hold this very value
	case nd.slack != prev:
		repull(ix.nodes, ix.root, nd.key, id)
	}
}

// repull refreshes the recorded child maxima on the path from n down to
// node id, filed under key.
//
//cubefit:hotpath
func repull(nodes []node, n int32, key float64, id int32) {
	if n == id {
		return
	}
	nd := &nodes[n]
	if precedes(key, id, nd.key, n) {
		repull(nodes, nd.left, key, id)
		nd.leftMax = subMax(nodes, nd.left)
	} else {
		repull(nodes, nd.right, key, id)
		nd.rightMax = subMax(nodes, nd.right)
	}
}
