package analysis

import (
	"go/ast"
	"go/types"
)

// isBuiltin reports whether the identifier resolves to the universe-scope
// builtin of that name (rather than a local redefinition).
func isBuiltin(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return true // unresolved; only builtins escape Uses in checked code
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// hotPathPkgs are the packages on the Algorithm 4.1 evaluation path where a
// panic aborts a whole selection (or a whole worker pool) instead of
// surfacing as a per-query error.
var hotPathPkgs = []string{
	"internal/match",
	"internal/algebra",
	"internal/exec",
	"internal/pattern",
	"internal/expr",
	"internal/graph",
	"internal/sqlbase",
}

// panicAllowlist names functions permitted to panic. It is empty: the
// graph constructors that used to be allowlisted (AddNode/AddEdge/
// RenameNode/TupleOf) now record construction errors surfaced via
// Graph.Err and the batch Builder, so bulk ingest of untrusted graph files
// can never abort the process. Add an entry here — with a justification —
// only for a provably call-site-bug-only invariant check.
var panicAllowlist = map[string]string{}

// PanicFree forbids panic and log.Fatal* in hot-path packages.
var PanicFree = &Analyzer{
	Name: "panicfree",
	Doc:  "forbid panic/log.Fatal in hot-path packages (match, algebra, exec, pattern, expr, graph) outside the constructor allowlist",
	Run:  runPanicFree,
}

func runPanicFree(pass *Pass) {
	if !pathHasAnySuffix(pass.Path, hotPathPkgs) {
		return
	}
	for _, file := range pass.Files {
		// Test helpers panic to fail loudly; the no-panic contract binds
		// the production query path only.
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := panicAllowlist[funcKey(pass.Path, fd)]; ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					if fn.Name == "panic" && isBuiltin(pass, fn) {
						pass.Reportf(call.Pos(), "panic in hot-path function %s; return an error instead (or allowlist in internal/analysis/panicfree.go)", fd.Name.Name)
					}
				case *ast.SelectorExpr:
					if x, ok := fn.X.(*ast.Ident); ok && x.Name == "log" {
						switch fn.Sel.Name {
						case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
							pass.Reportf(call.Pos(), "log.%s in hot-path function %s; return an error instead", fn.Sel.Name, fd.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
}
