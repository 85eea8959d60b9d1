package analyzers

import (
	"go/ast"
	"go/types"

	"cubefit/internal/analysis"
)

// Wallclock rejects time.Now and time.Since outside the approved seams.
// Simulation and algorithm results must be a pure function of inputs and
// seeds; wall-clock reads belong behind the clock.Clock interface
// (internal/clock) so tests can substitute a fake. The metrics layer and
// the server binary are operational code and legitimately observe real
// time.
var Wallclock = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "time.Now/time.Since outside approved seams leak wall-clock into simulations",
	Run:  runWallclock,
}

// wallclockSeams are the packages allowed to read the wall clock.
var wallclockSeams = map[string]bool{
	"cubefit/internal/clock":     true, // the injectable seam itself
	"cubefit/internal/metrics":   true, // request latency observation
	"cubefit/cmd/cubefit-server": true, // operational logging in main
}

func runWallclock(pass *analysis.Pass) error {
	if wallclockSeams[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if name := obj.Name(); name == "Now" || name == "Since" {
				pass.Reportf(sel.Pos(),
					"time.%s outside an approved seam; inject a clock.Clock (internal/clock) instead", name)
			}
			return true
		})
	}
	return nil
}
