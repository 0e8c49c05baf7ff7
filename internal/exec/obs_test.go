package exec

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/parser"
	"gqldb/internal/store"
)

const coauthorSrc = `
graph P {
	node v1 <author>;
	node v2 <author>;
} where P.booktitle="SIGMOD";
for P exhaustive in doc("DBLP") return graph {
	node P.v1, P.v2;
	edge e1 (P.v1, P.v2);
};`

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// TestTraceDisabledByDefault: no Engine.Trace, no ctx span — Result.Trace
// stays nil and execution is untouched.
func TestTraceDisabledByDefault(t *testing.T) {
	e := newEngine(docs{"DBLP": dblp()})
	res, err := e.RunContext(context.Background(), parse(t, coauthorSrc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("Trace = %v, want nil when tracing is off", res.Trace)
	}
}

// TestTraceSpanTree: Engine.Trace records the whole phase tree with
// truthful counters, and tracing must not change the results.
func TestTraceSpanTree(t *testing.T) {
	plain, err := newEngine(docs{"DBLP": dblp()}).RunContext(context.Background(), parse(t, coauthorSrc))
	if err != nil {
		t.Fatal(err)
	}

	e := newEngine(docs{"DBLP": dblp()})
	e.Trace = true
	e.Workers = 4
	res, err := e.RunContext(context.Background(), parse(t, coauthorSrc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Result.Trace missing with Engine.Trace set")
	}
	if len(res.Out) != len(plain.Out) {
		t.Fatalf("tracing changed results: %d graphs vs %d", len(res.Out), len(plain.Out))
	}
	for i := range plain.Out {
		if res.Out[i].Signature() != plain.Out[i].Signature() {
			t.Fatalf("tracing changed result %d", i)
		}
	}

	seen := map[string]int{}
	var flwr, selection *obs.Span
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		seen[sp.Name]++
		switch sp.Name {
		case "flwr":
			flwr = sp
		case "selection":
			selection = sp
		}
	})
	for _, name := range []string{"query", "flwr", "compile", "selection", "return-fanout"} {
		if seen[name] == 0 {
			t.Errorf("trace missing %q span; have %v", name, seen)
		}
	}
	if flwr != nil {
		var pat string
		for _, a := range flwr.Attrs() {
			if a.Key == "pattern" {
				pat = a.Val
			}
		}
		if pat != "P" {
			t.Errorf("flwr pattern attr = %q, want P", pat)
		}
	}
	if selection != nil {
		if selection.Count("matches") == 0 {
			t.Error("selection span has zero matches counter")
		}
		if selection.Count("workers") == 0 {
			t.Error("selection span has zero workers counter")
		}
	}
	if res.Trace.Wall() <= 0 {
		t.Error("root span wall time not frozen")
	}
}

// TestExternalRootSpan: a span installed by the caller (the facade's parse
// span pattern) is reused — the engine hangs its phases off it and does NOT
// End it.
func TestExternalRootSpan(t *testing.T) {
	root := obs.NewTrace("caller")
	ctx := obs.NewContext(context.Background(), root)
	e := newEngine(docs{"DBLP": dblp()}) // note: e.Trace left false
	res, err := e.RunContext(ctx, parse(t, coauthorSrc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != root {
		t.Fatal("Result.Trace must be the caller's root span")
	}
	found := false
	root.Walk(func(_ int, sp *obs.Span) { found = found || sp.Name == "flwr" })
	if !found {
		t.Fatal("engine phases not attached to the caller's root")
	}
}

// TestSlowQueryHook: a 1ns threshold reports every query to the hook with
// a truthful statement count and the trace when available.
func TestSlowQueryHook(t *testing.T) {
	e := newEngine(docs{"DBLP": dblp()})
	e.Trace = true
	e.SlowQuery = time.Nanosecond
	var got []obs.SlowQueryRecord
	e.SlowQueryLog = func(r obs.SlowQueryRecord) { got = append(got, r) }
	before := obs.SlowQueries.Value()
	if _, err := e.RunContext(context.Background(), parse(t, coauthorSrc)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	if got[0].Wall <= 0 || got[0].Statements != 2 || got[0].Trace == nil || got[0].Err != nil {
		t.Fatalf("record = %+v", got[0])
	}
	if obs.SlowQueries.Value() != before+1 {
		t.Fatalf("slow-query counter delta = %d, want 1", obs.SlowQueries.Value()-before)
	}
	// Below threshold: silent.
	e.SlowQuery = time.Hour
	if _, err := e.RunContext(context.Background(), parse(t, coauthorSrc)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("hook fired below threshold")
	}
}

// TestTraceIndexFilterCounters: over a store-built path index, the
// index-filter span carries candidate/pruned counters that add up.
func TestTraceIndexFilterCounters(t *testing.T) {
	coll := dblp()
	ds := store.New(store.Options{IndexMaxLen: 2})
	ds.RegisterDoc("DBLP", coll)
	e := NewOver(ds)
	e.Trace = true
	res, err := e.RunContext(context.Background(), parse(t, coauthorSrc))
	if err != nil {
		t.Fatal(err)
	}
	var ix *obs.Span
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		if sp.Name == "index-filter" {
			ix = sp
		}
	})
	if ix == nil {
		t.Fatal("no index-filter span over an indexed store")
	}
	total, cand, pruned := ix.Count("total"), ix.Count("candidates"), ix.Count("pruned")
	if total != int64(len(coll)) || cand+pruned != total {
		t.Fatalf("filter counters total=%d candidates=%d pruned=%d", total, cand, pruned)
	}
}

// TestTraceShardedSelectionCounters: on a sharded, indexed document every
// shard runs its index filter and the survivors of all four go through one
// selection kernel pass (no sharded-selection span in process), so the
// trace carries the counters that EXPLAIN's "selection search space" and
// "plan cache" tables are built from.
// A second query with a graph-attribute condition checks the graph gate's
// counter: every candidate the filters pass is a plan-cache hit, a miss or
// a gate rejection.
func TestTraceShardedSelectionCounters(t *testing.T) {
	coll := stressStore(60)["db"]
	for i, g := range coll {
		g.Attrs = graph.TupleOf("", "parity", i%3)
	}
	ds := store.New(store.Options{Shards: 4, IndexMaxLen: 2})
	ds.RegisterDoc("db", coll)
	e := NewOver(ds)
	e.Trace = true
	e.Plans = match.NewPlanCache(64)
	res, err := e.RunContext(context.Background(), parse(t, stressQuery))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) == 0 {
		t.Fatal("degenerate test: no result rows")
	}
	var sharded, selections, filters int
	sel, ix := map[string]int64{}, map[string]int64{}
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		switch sp.Name {
		case "sharded-selection":
			sharded++
		case "selection":
			selections++
			for k, v := range sp.Counts() {
				sel[k] += v
			}
		case "index-filter":
			filters++
			for k, v := range sp.Counts() {
				ix[k] += v
			}
		}
	})
	if sharded != 0 || selections != 1 || filters != 4 {
		t.Fatalf("trace has %d sharded-selection, %d selection and %d index-filter spans, want 0, 1 and 4", sharded, selections, filters)
	}
	if sel["cand_baseline"] == 0 {
		t.Error("the selection span carries no cand_baseline: EXPLAIN's search-space table would be empty")
	}
	if sel["matches"] != int64(len(res.Out)) {
		t.Errorf("selection spans count %d matches, result has %d rows", sel["matches"], len(res.Out))
	}
	if ix["total"] != int64(len(coll)) || ix["candidates"]+ix["pruned"] != ix["total"] {
		t.Errorf("filter counters total=%d candidates=%d pruned=%d over %d graphs", ix["total"], ix["candidates"], ix["pruned"], len(coll))
	}
	if got := sel["plan_cache_hits"] + sel["plan_cache_misses"]; got != ix["candidates"] {
		t.Errorf("plan-cache counters cover %d graphs, the filters passed %d", got, ix["candidates"])
	}

	gateQuery := strings.Replace(stressQuery, "edge (v1, v2); };", "edge (v1, v2); } where P.parity = 1;", 1)
	res, err = e.RunContext(context.Background(), parse(t, gateQuery))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) == 0 {
		t.Fatal("degenerate test: no result rows under the graph condition")
	}
	sel, ix = map[string]int64{}, map[string]int64{}
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		switch sp.Name {
		case "selection":
			for k, v := range sp.Counts() {
				sel[k] += v
			}
		case "index-filter":
			for k, v := range sp.Counts() {
				ix[k] += v
			}
		}
	})
	if sel["graph_gate_rejected"] == 0 {
		t.Error("no member failed the graph gate under P.parity = 1")
	}
	if sel["matches"] != int64(len(res.Out)) {
		t.Errorf("gated selection spans count %d matches, result has %d rows", sel["matches"], len(res.Out))
	}
	if got := sel["plan_cache_hits"] + sel["plan_cache_misses"] + sel["graph_gate_rejected"]; got != ix["candidates"] {
		t.Errorf("plan-cache and gate counters cover %d graphs, the filters passed %d", got, ix["candidates"])
	}
}

// TestTraceIndexedMember: a document with one large member and two small
// ones. The store indexes only the large member, the selection span counts
// it, refinement can only shrink its candidate space, and the rows equal an
// unindexed baseline selection of the same pattern.
func TestTraceIndexedMember(t *testing.T) {
	big := gen.PrefAttach(1024, 4096, 24, 7)
	coll := graph.Collection{dblp()[0], big, dblp()[1]}
	rng := rand.New(rand.NewSource(7))
	p := gen.GraphCliqueQuery(big, 3, rng)
	if p == nil {
		t.Fatal("no clique sampled from the large member")
	}
	p.Name, p.Motif.Name = "P", "P"
	src := p.String() + ";\nfor P exhaustive in doc(\"D\") return graph { graph P; };"

	e := newEngine(docs{"D": coll})
	e.Trace = true
	res, err := e.RunContext(context.Background(), parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	var sel *obs.Span
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		if sp.Name == "selection" {
			sel = sp
		}
	})
	if sel == nil {
		t.Fatal("no selection span")
	}
	if got := sel.Count("indexed"); got != 1 {
		t.Fatalf("indexed = %d, want 1 (only the large member)", got)
	}
	if refined, local := sel.Count("cand_refined"), sel.Count("cand_local"); refined > local {
		t.Fatalf("cand_refined %d > cand_local %d", refined, local)
	}

	want, err := algebra.SelectionContext(context.Background(), p, coll, match.Baseline(), nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != len(want) || len(want) == 0 {
		t.Fatalf("%d rows, baseline has %d", len(res.Out), len(want))
	}
	var ret *ast.TemplateDecl
	for _, st := range parse(t, src).Stmts {
		if f, ok := st.(*ast.FLWRStmt); ok {
			ret = f.Return
		}
	}
	tmpl, err := ret.ToTemplate()
	if err != nil {
		t.Fatal(err)
	}
	for i, mg := range want {
		exp, err := tmpl.Instantiate(map[string]algebra.Operand{"P": algebra.MatchedOperand(mg)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Out[i].Signature() != exp.Signature() {
			t.Fatalf("row %d differs from the baseline:\n%s\nwant\n%s", i, res.Out[i].Signature(), exp.Signature())
		}
	}
}
