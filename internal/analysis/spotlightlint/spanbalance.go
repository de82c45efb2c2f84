package spotlightlint

import (
	"go/ast"
	"go/types"

	"spotlight/internal/analysis/lintkit"
)

// SpanBalance enforces span hygiene on the obs causal-tracing API,
// repo-wide: a *obs.Span returned by obs.StartSpan, obs.ChildOrRoot, or
// the Child/ChildSample/ChildLabel methods must not be lost. A span
// that is never ended never emits its span.end event, so every trace
// consumer — tracestat's critical-path report, the per-kind duration
// histograms, `-check`'s balance accounting — sees the subtree as
// perpetually open and misattributes its time.
//
// Two forms are flagged:
//
//   - the span discarded outright (`obs.StartSpan(tr, "job")` as a bare
//     statement, or assigned to the blank identifier) — there is never a
//     reason; if the span is not wanted, don't start it;
//   - a span variable that is never referenced again in the function —
//     not ended, not deferred, not stored, not passed, not returned.
//
// Any genuine reference counts as handled: a span that escapes (stored
// in a RunConfig, returned to the caller, passed to runLayerSearch) is
// some other code's responsibility, and engine's job span — opened in
// RunSearch, threaded through core.RunContext — shows why that must
// stay legal. `_ = sp` does NOT count — it is the compiler-silencer
// spelling of the same leak. Full all-return-paths coverage needs a
// control-flow graph; the straight-line leak — starting and forgetting
// — is the form that appears in review, and `defer sp.End()` on the
// next line is always the fix.
var SpanBalance = &lintkit.Analyzer{
	Name: "spanbalance",
	Doc:  "spans from obs.StartSpan/ChildOrRoot/Child* must be ended (or escape): a lost span never emits span.end, leaving its subtree open in every trace",
	Run:  runSpanBalance,
}

// spanSource reports whether call creates a span: one of the obs package
// constructors (StartSpan, ChildOrRoot) or the *obs.Span child methods
// (Child, ChildSample, ChildLabel).
func spanSource(pass *lintkit.Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "spotlight/internal/obs" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		switch fn.Name() {
		case "StartSpan", "ChildOrRoot":
			return "obs." + fn.Name(), true
		}
		return "", false
	}
	switch fn.Name() {
	case "Child", "ChildSample", "ChildLabel":
		return "Span." + fn.Name(), true
	}
	return "", false
}

func runSpanBalance(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		lintkit.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				// A span constructor as a bare statement: the *Span is
				// dropped on the floor before anyone could End it.
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if src, ok := spanSource(pass, call); ok {
					pass.Reportf(call.Pos(),
						"the span from %s is discarded: its span.end can never be emitted — assign it and defer sp.End(), or annotate //lint:allow spanbalance(reason)", src)
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				src, ok := spanSource(pass, call)
				if !ok {
					return true
				}
				spanIdent, ok := stmt.Lhs[0].(*ast.Ident)
				if !ok {
					// Assignment into a field or element: the span escapes;
					// whoever owns that location ends it.
					return true
				}
				if spanIdent.Name == "_" {
					pass.Reportf(spanIdent.Pos(),
						"the span from %s is discarded: its span.end can never be emitted — assign it and defer sp.End(), or annotate //lint:allow spanbalance(reason)", src)
					return true
				}
				obj := pass.TypesInfo.Defs[spanIdent]
				if obj == nil {
					// `sp = ...` reassignment into an existing variable: the
					// variable's other references keep it alive; treat the
					// reassignment itself as a use of that variable.
					return true
				}
				enclosing := lintkit.EnclosingFunc(stack)
				if enclosing == nil {
					return true
				}
				if !referencedAgain(pass, enclosing, spanIdent, obj) {
					pass.Reportf(spanIdent.Pos(),
						"%s is never ended: the span from %s never emits span.end — defer %s.End(), or annotate //lint:allow spanbalance(reason)",
						spanIdent.Name, src, spanIdent.Name)
				}
			}
			return true
		})
	}
	return nil
}
