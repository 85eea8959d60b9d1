package packing

import "math"

// This file is the single home of the repository's floating-point
// tolerances. Every capacity, robustness, and shared-load comparison in the
// code base must go through these constants or the helpers below; the
// `epsconst` and `floatcmp` analyzers in internal/analysis enforce that no
// other package (re-)introduces bare tolerance literals or raw comparisons
// against the unit capacity.
const (
	// CapacityEps absorbs accumulated floating-point error in server level
	// sums. It is shared by the unit-capacity check in Place, the
	// robustness validators, and every algorithm's m-fit/feasibility tests,
	// so that "fits" means the same thing on both sides of the
	// |Si| + Σ|Si∩Sj| ≤ 1 invariant.
	CapacityEps = 1e-9
	// SharedEps is the bookkeeping tolerance for pairwise shared loads:
	// residuals at or below it are treated as rounding noise and dropped
	// from the servers' shared loads when replicas are unplaced.
	SharedEps = 1e-12
)

// WithinCapacity reports whether a total load fits a unit-capacity server,
// absorbing up to CapacityEps of accumulated rounding error. It is the
// blessed form of the raw comparison `load <= 1`.
func WithinCapacity(load float64) bool { return load <= 1+CapacityEps }

// FitsWithin reports whether load fits the given capacity budget within
// CapacityEps (the generalization of WithinCapacity to budgets other than
// the unit capacity, e.g. slot sizes or RFI's μ threshold).
func FitsWithin(load, budget float64) bool { return load <= budget+CapacityEps }

// AlmostEqual reports whether two load values are equal within CapacityEps.
func AlmostEqual(a, b float64) bool { return AlmostEqualTol(a, b, CapacityEps) }

// AlmostEqualTol reports whether two values are equal within the given
// non-negative tolerance.
func AlmostEqualTol(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Negligible reports whether a residual shared-load value is floating-point
// noise (at most SharedEps) rather than real load.
func Negligible(x float64) bool { return x <= SharedEps }
