package analysis

import (
	"go/ast"
	"go/types"
)

// unsafeInGoroutine lists methods that mutate receiver state without
// synchronization; calling them from a goroutine that shares the receiver
// is a data race. Keyed by "<internal path>.<type>".
var unsafeInGoroutine = map[string]map[string]bool{
	"internal/graph.Graph":    {"AddNode": true, "AddEdge": true, "RenameNode": true},
	"internal/graph.Builder":  {"AddNode": true, "AddEdge": true, "RenameNode": true, "SetTuple": true},
	"internal/index.Interner": {"Intern": true},
	// Stats.RecordOp appends to the Ops slice; the parallel operators call
	// it from the coordinating goroutine only, never from pool workers.
	"internal/match.Stats": {"RecordOp": true},
	// Span.End and SetAttr are coordinator-only by contract: End freezes
	// the wall clock once and SetAttr is last-write-wins, so calling either
	// from pool workers corrupts the trace even though Add/StartChild are
	// locked and worker-safe.
	"internal/obs.Span": {"End": true, "SetAttr": true},
	// DocBuilder batches registrations without synchronization; builds are
	// single-goroutine by contract, with DocStore.commitApply publishing
	// the result under the store lock.
	"internal/store.DocBuilder": {"Add": true},
	// SetCapacity resizes the LRU without taking the cache lock; it is a
	// startup-only call by contract, before any querying goroutine exists.
	"internal/store.Cache": {"SetCapacity": true},
	// Same contract for the search-plan cache: Get/Put are locked and
	// worker-safe, SetCapacity is startup-only.
	"internal/match.PlanCache": {"SetCapacity": true},
	// The write-ahead log serializes under the store writer lock, which
	// its callers (DocStore.ApplyBatch, checkpointing) hold by contract;
	// Append and Reset write the file position and record counter without
	// their own lock, so a bare goroutine call interleaves frames.
	"internal/store.WAL": {"Append": true, "Reset": true},
	// The remote selector's tuning knobs write plain fields read by every
	// in-flight SelectShard call: startup-only by contract, before the
	// selector is handed to an engine. Probe/Health stay off this list —
	// the health slice is mutex-guarded.
	"internal/store.RemoteSelector": {
		"SetTimeout": true, "SetRetries": true, "SetHedgeAfter": true, "SetAllowPartial": true,
	},
	// The streaming pipeline's sinks and emitters mutate receiver state
	// (row buffers, ordinals, flush clocks) without locks: Emit runs on the
	// query's coordinating goroutine by contract, never from pool workers.
	"internal/exec.CollectSink": {"Emit": true},
	"internal/exec.streamState": {"emit": true},
	"internal/exec.rowEmitter":  {"group": true, "flush": true, "close": true},
	"internal/server.rowSink":   {"Emit": true},
	// The NDJSON writer shares one encoder and flush clock per response;
	// line/flush are coordinator-only for the same reason.
	"internal/server.ndjsonWriter": {"line": true, "flush": true},
}

// GoSafe inspects goroutine bodies — `go` statements and the function
// literals handed to pool.Run, which run on the pool's workers — for
// the two race shapes that matter in this codebase: calls to known
// non-thread-safe mutators, and writes to captured variables that are not
// index-partitioned. A write whose access path goes through an index
// expression (results[i].ms = ...) is the sanctioned partitioning pattern:
// each worker owns a disjoint slot. A write to a bare captured identifier
// (out = append(out, ...)) is shared state and is flagged.
var GoSafe = &Analyzer{
	Name: "gosafe",
	Doc:  "flag goroutine bodies that call non-thread-safe methods or write captured variables without index partitioning",
	Run:  runGoSafe,
}

func runGoSafe(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// go g.AddNode(...) — direct unsafe call as the goroutine.
				if typ, m := unsafeMethod(pass, n.Call); m != "" {
					pass.Reportf(n.Pos(), "goroutine calls non-thread-safe %s.%s", typ, m)
				}
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineBody(pass, lit)
				}
			case *ast.CallExpr:
				fn := calleeOf(pass, n)
				if trimToInternal(pkgLevelFuncOf(fn)) != "internal/pool" || fn.Name() != "Run" {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkGoroutineBody(pass, lit)
					}
				}
			}
			return true
		})
	}
}

func checkGoroutineBody(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if typ, m := unsafeMethod(pass, s); m != "" {
				pass.Reportf(s.Pos(), "goroutine body calls non-thread-safe %s.%s; synchronize or move outside the goroutine", typ, m)
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkSharedWrite(pass, lit, lhs)
			}
		case *ast.IncDecStmt:
			checkSharedWrite(pass, lit, s.X)
		}
		return true
	})
}

// checkSharedWrite flags an assignment target rooted at a variable captured
// from outside the goroutine unless the access path is index-partitioned.
func checkSharedWrite(pass *Pass, lit *ast.FuncLit, lhs ast.Expr) {
	indexed := false
	e := lhs
walk:
	for {
		switch t := e.(type) {
		case *ast.IndexExpr:
			indexed = true
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			break walk
		}
	}
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" || indexed {
		return
	}
	obj := pass.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
		return // declared inside the goroutine: worker-local
	}
	pass.Reportf(lhs.Pos(), "goroutine writes captured variable %q without index partitioning; give each worker its own slot (x[i] = ...) or synchronize", id.Name)
}

// unsafeMethod reports whether the call is a method in unsafeInGoroutine,
// returning the type key and method name.
func unsafeMethod(pass *Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return "", ""
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	key := trimToInternal(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
	if unsafeInGoroutine[key][sel.Sel.Name] {
		return key, sel.Sel.Name
	}
	return "", ""
}
