package analyzers

import (
	"go/ast"
	"go/types"

	"cubefit/internal/analysis"
)

// Failclosed guards PR 6's durability contract: the WAL and JSONL sinks
// fail closed — once a write, flush, or fsync errors, every later
// admission must be refused — which only works if no error from the sink
// chain is dropped on the floor. An ignored Close on a WAL is a silent
// durability hole: the final group commit's error vanishes and the caller
// acks state that never reached stable storage.
//
// Flagged: discarding the error result of Sync, Flush, Close, or Write
// called on a durability-relevant sink — any type declared in
// internal/obs, plus the raw handles the sinks are built from (*os.File
// for Sync/Close/Write, *bufio.Writer for Flush) — whether by an
// expression statement, a blank assignment, `defer`, or `go`. Read-only
// handles (an *os.File opened only for reading) still match; suppress
// those with //cubefit:vet-allow failclosed -- <why the error is moot>.
var Failclosed = &analysis.Analyzer{
	Name: "failclosed",
	Doc:  "ignored error from Sync/Flush/Close/Write on a WAL/JSONL sink or its underlying handle",
	Run:  runFailclosed,
}

// obsPath is the package owning the log and the event sinks.
const obsPath = "cubefit/internal/obs"

// sinkMethods are the durability-relevant methods whose error results
// must be consumed.
var sinkMethods = map[string]bool{"Sync": true, "Flush": true, "Close": true, "Write": true}

func runFailclosed(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				reportSinkCall(pass, n.X, "discarded")
			case *ast.DeferStmt:
				reportSinkCall(pass, n.Call, "discarded by defer")
			case *ast.GoStmt:
				reportSinkCall(pass, n.Call, "discarded by go")
			case *ast.AssignStmt:
				// `_ = f.Close()` and `_, _ = w.Write(b)` discard just as
				// surely; a named variable on any position consumes it.
				if !allBlank(n.Lhs) {
					return true
				}
				for _, rhs := range n.Rhs {
					reportSinkCall(pass, rhs, "assigned to _")
				}
			}
			return true
		})
	}
	return nil
}

// allBlank reports whether every assignment target is the blank
// identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// reportSinkCall flags e when it is a sink-method call whose error result
// is being dropped in the described way.
func reportSinkCall(pass *analysis.Pass, e ast.Expr, how string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sinkMethods[sel.Sel.Name] {
		return
	}
	if !returnsError(pass, call) {
		return
	}
	recv := pass.Info.TypeOf(sel.X)
	if !isSinkType(recv, sel.Sel.Name) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s.%s %s; the fail-closed contract requires every sink error to be checked",
		types.TypeString(recv, types.RelativeTo(pass.Pkg)), sel.Sel.Name, how)
}

// returnsError reports whether the call's results include an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isSinkType reports whether the receiver type is durability-relevant for
// the given method: any named type from internal/obs, *os.File (Sync,
// Close, Write), or *bufio.Writer (Flush, Write).
func isSinkType(t types.Type, method string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case obsPath:
		return true
	case "os":
		return obj.Name() == "File" && method != "Flush"
	case "bufio":
		return obj.Name() == "Writer" && (method == "Flush" || method == "Write")
	}
	return false
}
