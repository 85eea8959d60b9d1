package analyzers

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"cubefit/internal/analysis"
)

// Guardedby enforces declared lock discipline: a struct field annotated
//
//	//cubefit:guarded-by mu
//
// (in the field's doc or trailing comment, naming a sync.Mutex or
// sync.RWMutex field of the same struct) may only be accessed inside
// functions that lock or RLock that mutex on the same receiver. This is
// the machine-checked form of the api.Controller snapshot-clone
// discipline from PR 6: `snap` is only touched under `mu`, `closed` only
// under `sendMu`, and the internals of the WAL and the span and health
// log sinks only under their own locks.
//
// The check is intra-procedural and existence-based, like lockpair: a
// function that takes the lock anywhere in its body (including in a
// nested literal it runs) covers every access in that body. Helpers that
// are documented as called-with-lock-held are exempt when their name ends
// in "Locked" (the syncLocked convention); anything else asymmetric needs
// //cubefit:vet-allow guardedby -- <why>. An annotation naming a missing
// or non-mutex field is itself a finding, so annotations cannot rot.
var Guardedby = &analysis.Analyzer{
	Name: "guardedby",
	Doc:  "//cubefit:guarded-by fields accessed without holding the named mutex",
	Run:  runGuardedby,
}

// guardedByDirective is the field-annotation marker.
const guardedByDirective = "//cubefit:guarded-by"

// GuardedField is one annotated struct field. Exported so tests can
// assert that specific fields of the real tree carry the annotation (the
// negative test: removing the annotation silences the analyzer, so its
// presence must itself be tested).
type GuardedField struct {
	Struct string // declaring struct's type name
	Field  string
	Mutex  string // the guarding mutex field named by the annotation
	Pos    token.Pos
}

// CollectGuardedFields gathers every guarded-by annotation in the pass's
// files, in declaration order.
func CollectGuardedFields(pass *analysis.Pass) []GuardedField {
	var out []GuardedField
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					mu := guardedByOf(field)
					if mu == "" {
						continue
					}
					for _, name := range field.Names {
						out = append(out, GuardedField{Struct: ts.Name.Name, Field: name.Name, Mutex: mu, Pos: name.Pos()})
					}
				}
			}
		}
	}
	return out
}

// guardedByOf extracts the mutex name from a field's annotation ("" when
// unannotated).
func guardedByOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, guardedByDirective); ok {
				return strings.TrimSpace(rest)
			}
		}
	}
	return ""
}

func runGuardedby(pass *analysis.Pass) error {
	// anno maps struct name -> field name -> guarding mutex name.
	anno := make(map[string]map[string]string)
	for _, gf := range CollectGuardedFields(pass) {
		if anno[gf.Struct] == nil {
			anno[gf.Struct] = make(map[string]string)
		}
		anno[gf.Struct][gf.Field] = gf.Mutex
		validateGuard(pass, gf)
	}
	if len(anno) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // called-with-lock-held convention
			}
			checkGuardedAccesses(pass, anno, fd.Body)
		}
	}
	return nil
}

// validateGuard reports annotations naming a field that does not exist on
// the struct or is not a sync mutex, so stale annotations surface instead
// of silently guarding nothing.
func validateGuard(pass *analysis.Pass, gf GuardedField) {
	obj := pass.Pkg.Scope().Lookup(gf.Struct)
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != gf.Mutex {
			continue
		}
		if !isSyncLock(f.Type()) {
			pass.Reportf(gf.Pos, "guarded-by names %s.%s, which is not a sync.Mutex/RWMutex", gf.Struct, gf.Mutex)
		}
		return
	}
	pass.Reportf(gf.Pos, "guarded-by names %s.%s, but %s has no such field", gf.Struct, gf.Mutex, gf.Struct)
}

// checkGuardedAccesses verifies every annotated-field access in one
// function body against the lock calls present in that body.
func checkGuardedAccesses(pass *analysis.Pass, anno map[string]map[string]string, body *ast.BlockStmt) {
	// locked holds the printed receiver of every Lock/RLock call in the
	// body (e.g. "c.mu"), nested literals included: a closure executed by
	// the function runs under whatever the function holds, and a lock
	// taken inside a deferred literal still expresses intent to guard.
	locked := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c := lockCallOf(pass, call); c != nil && (c.method == "Lock" || c.method == "RLock") {
			locked[c.recv] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		structName, ok := annotatedStructOf(pass, sel.X)
		if !ok {
			return true
		}
		mu, ok := anno[structName][sel.Sel.Name]
		if !ok {
			return true
		}
		base := printExpr(sel.X)
		if base == "" || locked[base+"."+mu] {
			return true
		}
		pass.Reportf(sel.Pos(), "%s.%s is guarded by %s but this function never calls %s.%s.Lock/RLock (name it *Locked if the caller holds it)",
			structName, sel.Sel.Name, mu, base, mu)
		return true
	})
}

// annotatedStructOf resolves the selector base to a named struct declared
// in this package, returning its name.
func annotatedStructOf(pass *analysis.Pass, x ast.Expr) (string, bool) {
	t := pass.Info.TypeOf(x)
	if t == nil {
		return "", false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg() != pass.Pkg {
		return "", false
	}
	return obj.Name(), true
}

// printExpr renders an expression to source form for receiver matching.
func printExpr(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}
