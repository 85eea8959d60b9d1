package packing

import (
	"errors"
	"fmt"
)

// ErrNotRobust indicates a violated robustness constraint.
var ErrNotRobust = errors.New("packing: placement is not robust")

// ErrIncomplete indicates a tenant with unplaced replicas.
var ErrIncomplete = errors.New("packing: tenant has unplaced replicas")

// Validate checks the full correctness of the placement:
//
//  1. every registered tenant has all γ replicas placed, on γ distinct
//     servers;
//  2. no server's direct load exceeds 1;
//  3. the robustness invariant holds: for every server Si,
//     |Si| + (sum of the γ−1 largest |Si ∩ Sj|) ≤ 1.
//
// Condition 3 is equivalent to quantifying over all sets S* of at most γ−1
// other servers because the left side is maximized by the top γ−1 shared
// loads (see TestValidateMatchesExhaustive).
func (p *Placement) Validate() error {
	// Report the violation of the lowest tenant ID, so the error is a pure
	// function of the placement, not of map iteration order.
	var (
		worst TenantID
		err   error
	)
	//cubefit:vet-allow maprange -- keeps the lowest-ID violation, which is the same in any iteration order
	for id, r := range p.rows {
		if err != nil && id > worst {
			continue
		}
		if e := checkHosts(id, p.rowHosts(r)); e != nil {
			worst, err = id, e
		}
	}
	if err != nil {
		return err
	}
	return p.ValidateRobustness()
}

// checkHosts reports the first problem with one tenant's hosts, in replica
// index order: an unplaced replica, or a server that already holds one of
// the tenant's earlier replicas.
func checkHosts(id TenantID, hosts []int) error {
	for idx, sid := range hosts {
		if sid == -1 {
			return fmt.Errorf("%w: tenant %d replica %d", ErrIncomplete, id, idx)
		}
		for _, prev := range hosts[:idx] {
			if prev == sid {
				return fmt.Errorf("%w: tenant %d twice on server %d", ErrDuplicateTenant, id, sid)
			}
		}
	}
	return nil
}

// ValidateRobustness checks conditions 2 and 3 of Validate without
// requiring all replicas to be placed (useful mid-stream).
func (p *Placement) ValidateRobustness() error {
	for _, s := range p.servers {
		if !WithinCapacity(s.level) {
			return fmt.Errorf("%w: server %d level %v > 1", ErrOverflow, s.id, s.level)
		}
		reserve := s.TopShared(p.gamma - 1)
		if !WithinCapacity(s.level + reserve) {
			return fmt.Errorf("%w: server %d level %v + worst-case redirected %v > 1",
				ErrNotRobust, s.id, s.level, reserve)
		}
	}
	return nil
}

// ValidateExhaustive checks the robustness invariant by enumerating every
// set S* of exactly γ−1 other servers for every server. It is exponential
// in γ−1 and meant for cross-checking the incremental validator in tests on
// small placements.
func (p *Placement) ValidateExhaustive() error {
	k := p.gamma - 1
	n := len(p.servers)
	for _, s := range p.servers {
		if !WithinCapacity(s.level) {
			return fmt.Errorf("%w: server %d level %v > 1", ErrOverflow, s.id, s.level)
		}
		others := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != s.id {
				others = append(others, j)
			}
		}
		if err := p.checkSubsets(s, others, k); err != nil {
			return err
		}
	}
	return nil
}

func (p *Placement) checkSubsets(s *Server, others []int, k int) error {
	if k > len(others) {
		k = len(others)
	}
	idx := make([]int, k)
	var rec func(start, depth int, extra float64) error
	rec = func(start, depth int, extra float64) error {
		if !WithinCapacity(s.level + extra) {
			chosen := make([]int, depth)
			for i := 0; i < depth; i++ {
				chosen[i] = others[idx[i]]
			}
			return fmt.Errorf("%w: server %d overloads to %v if servers %v fail",
				ErrNotRobust, s.id, s.level+extra, chosen)
		}
		if depth == k {
			return nil
		}
		for i := start; i < len(others); i++ {
			idx[depth] = i
			if err := rec(i+1, depth+1, extra+s.SharedWith(others[i])); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, 0, 0)
}

// FailureImpact returns, for each server, the worst-case extra load
// redirected to it if all servers in failed go down simultaneously
// (Σ_{Sj ∈ failed} |Si ∩ Sj| for surviving Si; 0 for failed servers).
func (p *Placement) FailureImpact(failed []int) map[int]float64 {
	// Dedupe the failed set preserving the caller's order: the per-server
	// sum below adds floats in that order, keeping the result a pure
	// function of the arguments (summing s.shared in its stored order
	// would make the last ulp depend on the placement's history).
	down := make(map[int]bool, len(failed))
	uniq := make([]int, 0, len(failed))
	for _, f := range failed {
		if !down[f] {
			down[f] = true
			uniq = append(uniq, f)
		}
	}
	impact := make(map[int]float64, len(p.servers))
	for _, s := range p.servers {
		if down[s.id] {
			continue
		}
		extra := 0.0
		for _, j := range uniq {
			extra += s.SharedWith(j)
		}
		impact[s.id] = extra
	}
	return impact
}

// MaxPostFailureLoad returns the maximum over surviving servers of
// level + redirected load when the given servers fail.
func (p *Placement) MaxPostFailureLoad(failed []int) float64 {
	impact := p.FailureImpact(failed)
	maxLoad := 0.0
	//cubefit:vet-allow maprange -- max selection yields the same value in any iteration order
	for id, extra := range impact {
		if l := p.servers[id].level + extra; l > maxLoad {
			maxLoad = l
		}
	}
	return maxLoad
}
