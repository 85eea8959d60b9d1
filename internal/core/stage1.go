package core

import (
	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// tryFirstStage attempts to place all γ replicas of the tenant into mature
// bins using the Best Fit strategy under the m-fit test. Replicas are
// placed one by one, each into the eligible mature bin with the highest
// level; if some replica has no m-fitting bin, all earlier replicas are
// rolled back and the tenant falls through to the second stage.
//
// The tenant's hosts are refreshed once, after the last replica lands (or,
// on a fallback, once after the unplace), not after every replica. In
// between, only those hosts' bins and index entries are stale, and the
// search never reads them: firstMFit skips the tenant's hosts before it
// probes a bin, mFits reads their levels from the placement and their
// reserves from the digests the shared-load hook keeps current, and a
// stale, higher slack inside a subtree maximum can only let the walk enter
// a subtree, not skip a bin. Levels still change only through Place and
// Unplace, and the treap's shape depends only on its key set, so the
// placements and the tree after the refresh are those of a refresh per
// replica. A fallback therefore emits no bin_retire/bin_reactivate pair
// for its transient placement, and a success's bin_retire follows its
// last stage1_place.
//
//cubefit:hotpath
func (cf *CubeFit) tryFirstStage(t packing.Tenant, reps []packing.Replica) bool {
	placed := 0
	for j := range reps {
		b, probed := cf.bestMFit(t, reps[j])
		if cf.rec != nil {
			e := obs.NewEvent(obs.KindStage1Probe)
			e.Tenant = int(t.ID)
			e.Replica = j
			e.Probes = probed
			if b != nil {
				e.Server = b.server
			}
			cf.emit(&e)
		}
		if b == nil {
			if placed > 0 && cf.rec != nil {
				e := obs.NewEvent(obs.KindRollback)
				e.Tenant = int(t.ID)
				e.Reason = "first-stage fallback: no mature bin m-fits the replica"
				cf.emit(&e)
			}
			cf.rollbackFirstStage(t, reps, placed)
			return false
		}
		// The placement cannot fail: bestMFit verified capacity, tenant
		// distinctness and the robustness reserve.
		if err := cf.p.Place(b.server, reps[j]); err != nil {
			if placed > 0 && cf.rec != nil {
				e := obs.NewEvent(obs.KindRollback)
				e.Tenant = int(t.ID)
				e.Reason = "first-stage fallback: " + err.Error()
				cf.emit(&e)
			}
			cf.rollbackFirstStage(t, reps, placed)
			return false
		}
		placed++
		if cf.rec != nil {
			e := obs.NewEvent(obs.KindStage1Place)
			e.Tenant = int(t.ID)
			e.Replica = j
			e.Server = b.server
			e.Size = reps[j].Size
			e.Level = cf.p.Server(b.server).Level()
			cf.emit(&e)
		}
	}
	cf.refreshHosts(cf.hostsOf(t.ID))
	return true
}

// rollbackFirstStage unplaces the first `placed` replicas of the tenant and
// refreshes the bins that hosted them.
//
//cubefit:hotpath
func (cf *CubeFit) rollbackFirstStage(t packing.Tenant, reps []packing.Replica, placed int) {
	if placed == 0 {
		return
	}
	hosts := cf.hostsOf(t.ID)
	for j := 0; j < placed; j++ {
		_ = cf.p.Unplace(t.ID, reps[j].Index)
	}
	cf.refreshHosts(hosts)
}

// hostsOf returns the servers hosting the tenant's replicas, by replica
// index (−1 for one not placed), in a scratch buffer valid until the next
// hostsOf call.
//
//cubefit:hotpath
func (cf *CubeFit) hostsOf(id packing.TenantID) []int {
	hosts := cf.p.TenantHostsInto(id, cf.hostScratch)
	cf.hostScratch = hosts
	return hosts
}

// refreshHosts refreshes the reserve caches and index entries of the
// given servers, skipping −1 entries: the hosts of a tenant whose
// replicas were just placed or unplaced, whose levels and pairwise shared
// loads changed.
//
//cubefit:hotpath
func (cf *CubeFit) refreshHosts(hosts []int) {
	for _, h := range hosts {
		if h >= 0 {
			cf.refreshBin(cf.bins[h])
		}
	}
}

// bestMFit returns the active mature bin with the highest level that m-fits
// the replica (nil if none), along with the number of bins examined. A bin
// B m-fits replica r iff B does not already host the tenant, has room for
// r, and after placing r the empty space of B still covers the worst-case
// load redirected from any γ−1 simultaneous server failures. We
// additionally require that the reserve of the servers hosting the
// tenant's earlier replicas remains sufficient, since placing r increases
// their shared load with B.
//
// The default implementation walks the Best-Fit index; the reference
// linear scan remains as a test oracle (scanFirstStage). Both select the
// same bin: maximize level, break ties on the lower server ID.
func (cf *CubeFit) bestMFit(t packing.Tenant, rep packing.Replica) (best *bin, probed int) {
	if cf.scanFirstStage {
		return cf.bestMFitScan(t, rep)
	}
	return cf.bestMFitIndexed(t, rep)
}

// bestMFitIndexed is the fast path: it walks the Best-Fit index in order
// (level descending, server ID ascending) and returns the first bin that
// m-fits, which is exactly the bin the reference scan selects. Subtrees
// whose maximum slack cannot hold the replica are skipped whole; the
// slack test is necessary for m-fitting because the reserve only grows.
//
//cubefit:hotpath
func (cf *CubeFit) bestMFitIndexed(t packing.Tenant, rep packing.Replica) (best *bin, probed int) {
	root := cf.index.root
	if !packing.FitsWithin(rep.Size, subMax(cf.index.nodes, root)) {
		return nil, 0
	}
	earlier := cf.placedHosts(t.ID)
	best = cf.firstMFit(root, t, rep, earlier, &probed)
	return best, probed
}

// firstMFit returns the first bin of the subtree rooted at n, in Best-Fit
// order, that m-fits the replica (nil if none), counting in probed the
// bins that reach the m-fit test. The caller has checked that the
// subtree's slack maximum holds the replica; the walk only enters child
// subtrees whose recorded maximum does too, and a bin that fails the
// test resumes the walk right after it. The walk reads index nodes; it
// reads a bin only through the m-fit test of one it probes.
//
//cubefit:hotpath
func (cf *CubeFit) firstMFit(n int32, t packing.Tenant, rep packing.Replica, earlier []int, probed *int) *bin {
	nodes := cf.index.nodes
	for {
		nd := &nodes[n]
		if packing.FitsWithin(rep.Size, nd.leftMax) {
			if found := cf.firstMFit(nd.left, t, rep, earlier, probed); found != nil {
				return found
			}
		}
		if packing.FitsWithin(rep.Size, nd.slack) && !hostsTenant(earlier, int(n)) {
			*probed++
			if cf.mFits(cf.p.Server(int(n)), earlier, rep) {
				return cf.bins[n]
			}
		}
		if !packing.FitsWithin(rep.Size, nd.rightMax) {
			return nil
		}
		n = nd.right
	}
}

// bestMFitScan is the reference implementation: a linear scan over all
// active mature bins. Kept for differential testing (the parity property
// test drives both engines over identical workloads) and as the executable
// specification of the Best Fit tie-break.
//
//cubefit:hotpath
func (cf *CubeFit) bestMFitScan(t packing.Tenant, rep packing.Replica) (best *bin, probed int) {
	earlier := cf.placedHosts(t.ID)
	bestLevel := -1.0
	for i := 0; i < len(cf.active); i++ {
		b := cf.active[i]
		srv := cf.p.Server(b.server)
		slack := 1 - srv.Level() - b.reserve
		if packing.FitsWithin(slack, cf.cfg.PruneSlack) {
			// Permanently retire bins with no usable slack; the scan index
			// stays put because removeActive swaps the last element in.
			cf.removeActive(b)
			cf.retireBin(b)
			i--
			continue
		}
		// Best Fit: maximize level; break ties on the lower server ID so
		// the choice does not depend on active-list scan order.
		if srv.Level() < bestLevel ||
			//cubefit:vet-allow floatcmp -- exact tie-break on level keeps Best Fit deterministic
			(srv.Level() == bestLevel && best != nil && b.server > best.server) {
			continue
		}
		if !packing.FitsWithin(rep.Size, slack) {
			continue // necessary condition: new reserve only grows
		}
		if hostsTenant(earlier, b.server) {
			continue
		}
		probed++
		if cf.mFits(srv, earlier, rep) {
			best = b
			bestLevel = srv.Level()
		}
	}
	return best, probed
}

// placedHosts returns the servers currently hosting replicas of the tenant
// (empty for the first replica). The result lives in a scratch buffer valid
// until the next placedHosts call.
//
//cubefit:hotpath
func (cf *CubeFit) placedHosts(id packing.TenantID) []int {
	raw := cf.p.TenantHostsInto(id, cf.earlierScratch)
	if raw != nil {
		cf.earlierScratch = raw
	}
	// Filter out unplaced replicas in place (the write index never passes
	// the read index).
	hosts := raw[:0]
	for _, h := range raw {
		if h >= 0 {
			//cubefit:vet-allow hotpath -- in-place filter: hosts aliases the scratch backing array and never outgrows raw
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// hostsTenant reports whether server is among the tenant's placed hosts
// (placedHosts), which is whether it already holds one of its replicas.
//
//cubefit:hotpath
func hostsTenant(placed []int, server int) bool {
	for _, h := range placed {
		if h == server {
			return true
		}
	}
	return false
}

// mFits performs the exact m-fit test for placing rep on srv given the
// tenant's earlier replicas on `earlier`. The adjusted top-k sums come
// from the incremental per-bin reserve digests by default, making the
// test O(γ) instead of a scan over the server's shared loads; the
// reference recomputation stays as a test oracle (cachedReserve cleared)
// and produces bit-identical sums.
//
//cubefit:hotpath
func (cf *CubeFit) mFits(srv *packing.Server, earlier []int, rep packing.Replica) bool {
	k := cf.cfg.Gamma - 1
	level := srv.Level()
	if !packing.WithinCapacity(level + rep.Size) {
		return false
	}
	// Candidate server: its shared load with each earlier host grows by
	// rep.Size once rep lands here.
	after := cf.adjustedReserve(srv, k, earlier, rep.Size)
	if !packing.WithinCapacity(level + rep.Size + after) {
		return false
	}
	// Earlier hosts: their shared load with the candidate grows by the size
	// of their own replica of this tenant, which equals rep.Size.
	self := [1]int{srv.ID()}
	for _, h := range earlier {
		hs := cf.p.Server(h)
		afterH := cf.adjustedReserve(hs, k, self[:], rep.Size)
		if !packing.WithinCapacity(hs.Level() + afterH) {
			return false
		}
	}
	return true
}

// adjustedReserve dispatches the hypothetical top-k shared sum to the
// server's reserve digest (fast path) or the reference shared-load scan.
//
//cubefit:hotpath
func (cf *CubeFit) adjustedReserve(s *packing.Server, k int, bump []int, delta float64) float64 {
	if cf.cachedReserve {
		return cf.bins[s.ID()].digest.adjustedTopSum(k, bump, delta, s)
	}
	return topSharedAdjusted(s, k, bump, delta)
}

// topSharedAdjusted computes the sum of the k largest shared loads of s
// after hypothetically adding delta to its shared load with each server in
// bump (servers the server shares no load with count as delta).
//
//cubefit:hotpath
func topSharedAdjusted(s *packing.Server, k int, bump []int, delta float64) float64 {
	if k <= 0 {
		return 0
	}
	var top [8]float64 // k is γ−1, far below 8 for any valid config
	if k > len(top) {
		k = len(top)
	}
	//cubefit:vet-allow hotpath -- push never escapes: it is called directly and from the EachShared literal below, so it stays on the stack (the m-fit benchmark reports 0 allocs/op)
	push := func(v float64) {
		for i := 0; i < k; i++ {
			if v > top[i] {
				copy(top[i+1:k], top[i:k-1])
				top[i] = v
				break
			}
		}
	}
	seen := 0
	//cubefit:vet-allow hotpath -- the callback is passed to EachShared, which only invokes it inline over the shared loads; it does not escape (0 allocs/op)
	s.EachShared(func(j int, v float64) {
		for _, b := range bump {
			if b == j {
				v += delta
				seen++
				break
			}
		}
		push(v)
	})
	if seen < len(bump) {
		// Servers in bump with no current shared load contribute delta.
		for _, b := range bump {
			if s.SharedWith(b) == 0 {
				push(delta)
			}
		}
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += top[i]
	}
	return sum
}
