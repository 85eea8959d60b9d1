// Package analyzers holds the project-specific checks enforcing CubeFit's
// numeric, determinism, and locking invariants on top of the
// internal/analysis framework:
//
//   - floatcmp: no raw float equality on computed values, and no raw
//     ordered comparison of load/level expressions against the unit
//     capacity (use packing.WithinCapacity / packing.FitsWithin /
//     packing.AlmostEqual).
//   - epsconst: no bare tolerance literals (0 < |x| <= 1e-6) outside the
//     shared constants in internal/packing/tolerance.go.
//   - randsource: math/rand must not be imported outside internal/rng, so
//     experiment streams stay fixed across Go releases.
//   - wallclock: time.Now / time.Since only inside the approved seams
//     (internal/clock, internal/metrics, the server main); simulations
//     take an injected clock.Clock.
//   - lockpair: sync mutexes must not be copied by value, defer-ing Lock
//     is rejected, and every Lock/RLock needs a flavor-matched
//     Unlock/RUnlock on the same receiver in the same function.
//
// and the type- and flow-aware invariant checks encoding the contracts
// PRs 3–6 introduced:
//
//   - maprange: no `for range` over a map in the determinism-critical
//     packages (core, packing, sim, headroom, recovery) unless the body
//     is argued order-insensitive in a vet-allow.
//   - failclosed: no discarded error from Sync/Flush/Close/Write on the
//     obs sinks or the raw handles beneath them (the WAL fail-closed
//     contract).
//   - guardedby: //cubefit:guarded-by annotated struct fields are only
//     accessed in functions that lock the named mutex.
//   - hotpath: //cubefit:hotpath annotated functions stay free of
//     allocation-introducing constructs (fmt, capturing closures,
//     non-scratch append, &T{}, make/new, interface boxing).
//
// Every analyzer honors the //cubefit:vet-allow suppression directive of
// the framework; see README.md "Static analysis" for how to add a new
// check.
package analyzers

import (
	"go/ast"
	"go/types"

	"cubefit/internal/analysis"
)

// packingPath is the package owning the blessed tolerance definitions.
const packingPath = "cubefit/internal/packing"

// All returns the full suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Epsconst,
		Failclosed,
		Floatcmp,
		Guardedby,
		Hotpath,
		Lockpair,
		Maprange,
		Randsource,
		Wallclock,
	}
}

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Package).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isConstant reports whether the expression has a compile-time constant
// value.
func isConstant(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}
