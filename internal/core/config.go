// Package core implements CubeFit, the robust online server-consolidation
// algorithm of Mate, Daudjee and Kamali (ICDCS 2017, §III).
//
// CubeFit classifies replicas by size into K classes and packs replicas of
// class τ into bins partitioned into τ+γ−1 slots, τ of which hold replicas
// while γ−1 remain reserved for failover. Within a class, replicas are
// addressed into γ groups of τ^(γ−1) bins by a base-τ counter and its
// cyclic shifts, which guarantees that any two bins share replicas of at
// most one tenant (Lemma 1) and hence that no server overloads under any
// simultaneous failure of γ−1 servers (Theorem 1). Mature bins — bins whose
// τ replica slots have all been committed — additionally accept smaller
// replicas through a Best Fit first stage guarded by the m-fit test.
package core

import (
	"errors"
	"fmt"
)

// TinyPolicy selects how replicas of the smallest class K (size at most
// 1/(K+γ−1)) are consolidated.
type TinyPolicy int

const (
	// TinyClassKMinusOne places tiny replicas into class-(K−1) bins,
	// accumulating several tiny replicas per slot. This is the empirical
	// optimization the paper uses in its system experiments (§V-A).
	TinyClassKMinusOne TinyPolicy = iota + 1
	// TinyMultiReplica groups tiny replicas into multi-replicas of total
	// size at most 1/αK, where αK is the largest integer with αK²+αK < K,
	// and places them like replicas of class αK−γ+1 (the paper's §III
	// construction used in the worst-case analysis).
	TinyMultiReplica
)

// String returns the policy name.
func (tp TinyPolicy) String() string {
	switch tp {
	case TinyClassKMinusOne:
		return "class-k-minus-one"
	case TinyMultiReplica:
		return "multi-replica"
	default:
		return fmt.Sprintf("tiny-policy(%d)", int(tp))
	}
}

// Config parameterizes CubeFit.
type Config struct {
	// Gamma is the number of replicas per tenant; the resulting placement
	// tolerates any Gamma−1 simultaneous server failures. The paper uses
	// 2 or 3.
	Gamma int
	// K is the number of replica size classes. The paper suggests 10 for
	// data centers with thousands of servers and 5 for small settings.
	K int
	// TinyPolicy selects the class-K strategy; the zero value means
	// TinyClassKMinusOne.
	TinyPolicy TinyPolicy
	// DisableFirstStage turns off the mature-bin Best Fit stage so that
	// every tenant is placed by the cube construction alone. Used by the
	// first-stage ablation benchmark.
	DisableFirstStage bool
	// PruneSlack, when positive, permanently retires mature bins whose
	// usable slack falls below it. Callers that know a lower bound on
	// future replica sizes (e.g. (δ+β)/γ under the client load model) can
	// set it to keep first-stage scans fast without changing placements.
	PruneSlack float64
}

// DefaultConfig returns the configuration used in the paper's simulation
// experiments: γ=2, K=10.
func DefaultConfig() Config {
	return Config{Gamma: 2, K: 10, TinyPolicy: TinyClassKMinusOne}
}

func (c Config) withDefaults() Config {
	if c.TinyPolicy == 0 {
		c.TinyPolicy = TinyClassKMinusOne
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Gamma < 1 {
		return fmt.Errorf("core: gamma %d < 1", c.Gamma)
	}
	if c.K < 2 {
		return fmt.Errorf("core: K %d < 2", c.K)
	}
	if c.PruneSlack < 0 {
		return errors.New("core: PruneSlack must be non-negative")
	}
	switch c.TinyPolicy {
	case 0, TinyClassKMinusOne: // 0 is the documented default
	case TinyMultiReplica:
		if tc := AlphaK(c.K) - c.Gamma + 1; tc < 1 {
			return fmt.Errorf("core: multi-replica policy needs αK−γ+1 ≥ 1, got %d (K=%d, γ=%d); use TinyClassKMinusOne",
				tc, c.K, c.Gamma)
		}
	default:
		return fmt.Errorf("core: unknown tiny policy %d", c.TinyPolicy)
	}
	return nil
}

// AlphaK returns the largest integer α with α²+α < K, the multi-replica
// grouping parameter of §III.
func AlphaK(k int) int {
	a := 0
	for (a+1)*(a+1)+(a+1) < k {
		a++
	}
	return a
}

// ClassOf returns the class of a replica of the given size under the
// configuration: τ ∈ [1, K−1] when size ∈ (1/(τ+γ), 1/(τ+γ−1)], and K for
// sizes in (0, 1/(K+γ−1)].
func (c Config) ClassOf(size float64) int {
	// size ∈ (1/(τ+γ), 1/(τ+γ−1)]  ⇔  m ≤ 1/size < m+1 with m = τ+γ−1,
	// i.e. size·m ≤ 1 < size·(m+1). Start from the float estimate and
	// correct it with exact multiplicative checks so class boundaries such
	// as size = 1/5 land deterministically.
	m := int(1 / size)
	for m > 1 && size*float64(m) > 1 {
		m--
	}
	for size*float64(m+1) <= 1 {
		m++
	}
	tau := m - c.Gamma + 1
	if tau < 1 {
		tau = 1
	}
	if tau > c.K {
		tau = c.K
	}
	return tau
}

// SlotSize returns the slot size 1/(τ+γ−1) of a class-τ bin.
func (c Config) SlotSize(tau int) float64 {
	return 1 / float64(tau+c.Gamma-1)
}
