package spotlightlint

import (
	"go/ast"
	"go/types"
	"strings"

	"spotlight/internal/analysis/lintkit"
)

// ExitCheck enforces the service-safety invariant behind spotlightd:
// library code must never kill the process. os.Exit and log.Fatal*
// (package functions and *log.Logger methods alike) skip deferred
// handlers — the disk-cache journal flush, checkpoint writes, trace-sink
// close — and in a job server they take every other tenant's jobs down
// with them. Process death is an entry-point decision, so those calls
// are confined to cmd/ and examples/ packages; everything else returns
// an error (engine.ExitCode, for one, maps an error to a status that
// only the entry point acts on).
//
// References are flagged, not just calls: passing os.Exit as a value is
// the same capability escaping into library code.
var ExitCheck = &lintkit.Analyzer{
	Name: "exitcheck",
	Doc:  "os.Exit and log.Fatal* are confined to cmd/ and examples/ packages (library code returns errors; services must not be killed by a dependency)",
	Run:  runExitCheck,
}

// exitAllowed reports whether the package path may terminate the
// process: any package under a cmd/ or examples/ tree.
func exitAllowed(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" || seg == "examples" {
			return true
		}
	}
	return false
}

// isProcessKiller reports whether obj is os.Exit or a log Fatal*
// function/method (log.Fatal, log.Fatalf, log.Fatalln, and the
// corresponding *log.Logger methods — their Pkg() is "log" either way).
func isProcessKiller(obj types.Object) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "os":
		if fn.Name() == "Exit" {
			return "os.Exit", true
		}
	case "log":
		if strings.HasPrefix(fn.Name(), "Fatal") {
			return "log." + fn.Name(), true
		}
	}
	return "", false
}

func runExitCheck(pass *lintkit.Pass) error {
	if exitAllowed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			if name, bad := isProcessKiller(obj); bad {
				pass.Reportf(sel.Pos(),
					"%s outside a cmd/ or examples/ package: library code must return an error, not kill the process", name)
			}
			return true
		})
	}
	return nil
}
