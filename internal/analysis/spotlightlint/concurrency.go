package spotlightlint

import (
	"go/ast"
	"go/types"

	"spotlight/internal/analysis/lintkit"
)

// Shared machinery for the concurrency-lifecycle analyzers
// (goroutinejoin, lockbalance, mutexcopy, ctxcancel). The engine/serve
// layer made the codebase long-running and concurrent; these helpers
// answer the type questions all four analyzers keep asking: is this a
// sync.Mutex method, does this type embed a lock, which channel object
// does this expression name.

// goroutinePackages are the packages where every `go` statement must be
// provably joined. They are the long-running layer: the job runner and
// its workers, the HTTP/SSE server, the worker pool, observability's
// background HTTP server, the eval guard's timeout racer — plus lintkit
// itself, whose package-parallel driver is goroutine-managed (the
// analyzers eat their own dogfood). A goroutine nobody joins outlives
// its request, leaks under churn, and can write after shutdown.
var goroutinePackages = []string{
	"spotlight/internal/engine",
	"spotlight/internal/serve",
	"spotlight/internal/pool",
	"spotlight/internal/obs",
	"spotlight/internal/eval",
	"spotlight/internal/analysis/lintkit",
	"spotlight/cmd/spotlightd",
}

// syncMethodOn reports whether sel is a call of a method named name
// provided by package sync (Mutex.Lock, RWMutex.RLock, WaitGroup.Done,
// ...). Promoted methods of embedded sync types resolve to the same
// *types.Func, so a type embedding sync.Mutex is covered.
func syncMethodOn(pass *lintkit.Pass, sel *ast.SelectorExpr, recvType, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == recvType
}

// methodCall unpacks a node that is a call through a selector,
// returning the call and selector or nils.
func methodCall(n ast.Node) (*ast.CallExpr, *ast.SelectorExpr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	return call, sel
}

// chanObject resolves the channel-typed object an expression names (an
// identifier or field selection), or nil. Used to match a goroutine's
// sends/closes against the spawning function's receives.
func chanObject(pass *lintkit.Pass, expr ast.Expr) types.Object {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
		return nil
	}
	return obj
}

// funcUnits collects every function body in the file: declarations and
// literals alike, each one an independent analysis unit.
func funcUnits(f *ast.File) []ast.Node {
	var units []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			units = append(units, n)
		}
		return true
	})
	return units
}

// unitBody returns a unit's body block (nil for bodyless declarations).
func unitBody(unit ast.Node) *ast.BlockStmt {
	switch u := unit.(type) {
	case *ast.FuncDecl:
		return u.Body
	case *ast.FuncLit:
		return u.Body
	}
	return nil
}

// inspectShallow walks root without descending into nested function
// literals: statements of a nested literal execute on that function's
// schedule, not this one's, so lifecycle analyses must not conflate
// them. root itself may be a *ast.FuncLit; only literals below it are
// skipped.
func inspectShallow(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != root {
			return false
		}
		return fn(n)
	})
}
