package spotlightlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spotlight/internal/analysis/lintkit"
)

// MapOrder flags `for range` over a map whose body does something
// order-sensitive — appends to a slice, writes output, feeds a
// hash/fingerprint, or accumulates floating-point values — in packages
// whose results or artifacts must be reproducible. Go randomizes map
// iteration order per run, so any such loop makes CSV rows, log lines,
// fingerprints or float totals differ between identical invocations.
//
// The sanctioned fix is recognized and stays silent: a loop whose body
// only collects the keys into a slice that is subsequently sorted in the
// same block,
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// as are loops that merely aggregate order-insensitively (map writes,
// integer sums, max). A float `x += v` (or -=, *=, /=, or x = x op v)
// into a variable that outlives the loop is order-sensitive: float
// arithmetic is not associative, so the total can differ in its last
// bits between runs. Anything else needing an exception annotates
// //lint:allow maporder(reason).
var MapOrder = &lintkit.Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive iteration over maps (append/output/hash/float accumulation in the body) unless keys are sorted first",
	Run:  runMapOrder,
}

func runMapOrder(pass *lintkit.Pass) error {
	if !isOutputSensitive(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		lintkit.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedKeyCollection(pass, rng, stack) {
				return true
			}
			if what := orderSensitiveUse(pass, rng); what != "" {
				pass.Reportf(rng.For,
					"map iteration %s in package %s: Go randomizes map order, so this is nondeterministic across runs; iterate sorted keys instead (collect, sort, then index) or annotate //lint:allow maporder(reason)",
					what, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// orderSensitiveUse scans a range body for operations whose result
// depends on iteration order, returning a short description or "".
// Accumulation into targets declared *inside* the loop body is benign —
// each iteration starts fresh, so the per-iteration result does not
// depend on which iteration ran first — and stays silent; what makes a
// loop order-sensitive is feeding state that outlives the iteration.
func orderSensitiveUse(pass *lintkit.Pass, rng *ast.RangeStmt) string {
	local := func(e ast.Expr) bool { return declaredWithin(pass, e, rng) }
	var found string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			if acc := floatAccumulation(pass, as); acc != nil && !local(acc) {
				found = "accumulates floats into " + types.ExprString(acc)
			}
			return found == ""
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && obj.Name() == "append" {
				if len(call.Args) > 0 && local(call.Args[0]) {
					return true
				}
				found = "appends to a slice"
			} else if fingerprinty(fun.Name) {
				found = "feeds a hash/fingerprint (" + fun.Name + ")"
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			switch {
			case writerMethod(name) && !mapWriteTarget(pass, fun):
				if local(fun.X) {
					return true
				}
				found = "writes output (" + name + ")"
			case outputFunc(pass, fun):
				found = "writes output (" + name + ")"
			case fingerprinty(name):
				found = "feeds a hash/fingerprint (" + name + ")"
			}
		}
		return found == ""
	})
	return found
}

// floatAccumulation returns the target of a floating-point update in
// as that folds in its old value — x += e, -=, *=, /=, or x = x op e
// for one of those operators — or nil. A write into a map element
// (m[k] += e) is per-key aggregation and returns nil.
func floatAccumulation(pass *lintkit.Pass, as *ast.AssignStmt) ast.Expr {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	x := as.Lhs[0]
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	case token.ASSIGN:
		bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL && bin.Op != token.QUO) {
			return nil
		}
		if target := types.ExprString(x); types.ExprString(ast.Unparen(bin.X)) != target &&
			types.ExprString(ast.Unparen(bin.Y)) != target {
			return nil
		}
	default:
		return nil
	}
	if idx, ok := ast.Unparen(x).(*ast.IndexExpr); ok {
		if _, isMap := pass.TypesInfo.Types[idx.X].Type.(*types.Map); isMap {
			return nil
		}
	}
	if t := pass.TypesInfo.TypeOf(x); t == nil || !isFloat(t) {
		return nil
	}
	return x
}

// declaredWithin reports whether the root identifier of e (x in x, x.F,
// x[i].F, ...) denotes an object declared inside the range statement —
// per-iteration state rather than an accumulator that outlives the loop.
func declaredWithin(pass *lintkit.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[v]
			if obj == nil {
				obj = pass.TypesInfo.Defs[v]
			}
			return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
		default:
			return false
		}
	}
}

// writerMethod reports whether a method name is an io.Writer /
// strings.Builder / hash.Hash style sink.
func writerMethod(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Sum", "Sum32", "Sum64":
		return true
	}
	return false
}

// mapWriteTarget reports whether sel is a write *into a map value*
// (m[k].Write-style false positives are rare; this guards selector
// bases that are map index expressions, which are aggregation).
func mapWriteTarget(pass *lintkit.Pass, sel *ast.SelectorExpr) bool {
	_, isIndex := sel.X.(*ast.IndexExpr)
	return isIndex
}

// outputFunc reports whether the selector denotes one of fmt's printing
// functions that reach a writer or stdout (Sprint* builds a value and is
// judged by where that value goes instead).
func outputFunc(pass *lintkit.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}

// fingerprinty reports whether an identifier smells like hashing or
// fingerprinting.
func fingerprinty(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "hash") || strings.Contains(lower, "fingerprint") || lower == "mix"
}

// sortedKeyCollection recognizes the sanctioned pattern: the loop body
// is exactly `s = append(s, k)` for the range's key variable, and a
// later statement in the same enclosing block sorts s.
func sortedKeyCollection(pass *lintkit.Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[arg] != pass.TypesInfo.Defs[key] {
		return false
	}
	// Find the statement list holding the range and look for a sort of
	// dst after it.
	stmts, idx := enclosingStmts(stack, rng)
	if stmts == nil {
		return false
	}
	dstObj := pass.TypesInfo.Uses[dst]
	if dstObj == nil {
		dstObj = pass.TypesInfo.Defs[dst]
	}
	for _, st := range stmts[idx+1:] {
		if sortsSlice(pass, st, dstObj) {
			return true
		}
	}
	return false
}

// enclosingStmts returns the statement list directly containing stmt and
// its index there.
func enclosingStmts(stack []ast.Node, stmt ast.Stmt) ([]ast.Stmt, int) {
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch b := stack[i].(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			continue
		}
		for j, s := range list {
			if s == stmt {
				return list, j
			}
		}
	}
	return nil, -1
}

// sortsSlice reports whether the statement calls a sort/slices sorting
// function with obj as (part of) its argument.
func sortsSlice(pass *lintkit.Pass, st ast.Stmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Sort") && !sortHelper(fn.Name()) {
			return true
		}
		for _, arg := range call.Args {
			uses := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					uses = true
				}
				return !uses
			})
			if uses {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sortHelper covers the sort-package helpers not named Sort*.
func sortHelper(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
		return true
	}
	return false
}
