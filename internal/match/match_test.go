package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/pattern"
)

// fig416 is the running example: database graph G of Figures 4.1/4.16.
func fig416() *graph.Graph {
	g := graph.New("G")
	add := func(name, label string) graph.NodeID {
		return g.AddNode(name, graph.TupleOf("", "label", label))
	}
	a1 := add("A1", "A")
	a2 := add("A2", "A")
	b1 := add("B1", "B")
	b2 := add("B2", "B")
	c1 := add("C1", "C")
	c2 := add("C2", "C")
	g.AddEdge("", a1, b1, nil)
	g.AddEdge("", b1, c2, nil)
	g.AddEdge("", c2, a1, nil)
	g.AddEdge("", a1, c1, nil)
	g.AddEdge("", b2, c2, nil)
	g.AddEdge("", b2, a2, nil)
	return g
}

// trianglePattern is the query P of Figure 4.1: a triangle A-B-C.
func trianglePattern() *pattern.Pattern {
	p := pattern.New("P")
	a := p.LabelNode("a", "A")
	b := p.LabelNode("b", "B")
	c := p.LabelNode("c", "C")
	p.AddEdge("", a, b, nil, nil)
	p.AddEdge("", b, c, nil, nil)
	p.AddEdge("", c, a, nil, nil)
	return p
}

// allOptions enumerates meaningful option combinations; results must agree.
func allOptions() []Options {
	var out []Options
	for _, prune := range []LocalPrune{PruneNone, PruneProfile, PruneSubgraph} {
		for _, refine := range []bool{false, true} {
			for _, order := range []OrderMode{OrderInput, OrderGreedy, OrderDP} {
				for _, fg := range []bool{false, true} {
					for _, adj := range []bool{false, true} {
						out = append(out, Options{
							Exhaustive: true, Prune: prune, Refine: refine,
							Order: order, FreqGamma: fg, AdjIterate: adj,
						})
					}
				}
			}
		}
	}
	return out
}

func TestTriangleQueryFig41(t *testing.T) {
	g := fig416()
	ix := BuildIndex(g, 1, true)
	p := trianglePattern()
	for i, opt := range allOptions() {
		ms, _, err := Find(p, g, ix, opt)
		if err != nil {
			t.Fatalf("opt %d: %v", i, err)
		}
		if len(ms) != 1 {
			t.Fatalf("opt %d: %d matches, want 1", i, len(ms))
		}
		names := []string{}
		for _, v := range ms[0].Nodes {
			names = append(names, g.Node(v).Name)
		}
		if names[0] != "A1" || names[1] != "B1" || names[2] != "C2" {
			t.Errorf("opt %d: matched %v, want [A1 B1 C2]", i, names)
		}
	}
}

// TestRefinementFig418 checks Algorithm 4.2 against the worked example:
// input space {A1,A2}×{B1,B2}×{C1,C2} reduces to {A1}×{B1}×{C2}.
func TestRefinementFig418(t *testing.T) {
	g := fig416()
	ix := BuildIndex(g, 1, false)
	p := trianglePattern()
	_, st, err := Find(p, g, ix, Options{
		Exhaustive: true, Refine: true, CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBase := []int{2, 2, 2}
	wantRefined := []int{1, 1, 1}
	for u := range wantBase {
		if st.CandBaseline[u] != wantBase[u] {
			t.Errorf("baseline Φ(%d) = %d, want %d", u, st.CandBaseline[u], wantBase[u])
		}
		if st.CandRefined[u] != wantRefined[u] {
			t.Errorf("refined Φ(%d) = %d, want %d", u, st.CandRefined[u], wantRefined[u])
		}
	}
}

// TestLocalPruningFig417 checks the three search spaces of Figure 4.17.
func TestLocalPruningFig417(t *testing.T) {
	g := fig416()
	ix := BuildIndex(g, 1, true)
	p := trianglePattern()

	_, stProf, err := Find(p, g, ix, Options{Exhaustive: true, Prune: PruneProfile, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := stProf.CandLocal; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("profile space = %v, want [1 2 1]", got)
	}
	_, stSub, err := Find(p, g, ix, Options{Exhaustive: true, Prune: PruneSubgraph, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := stSub.CandLocal; got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("subgraph space = %v, want [1 1 1]", got)
	}
}

func TestExhaustiveVsFirst(t *testing.T) {
	// K4 of same-labelled nodes: the 3-clique pattern of same label has
	// 4·3·2 = 24 exhaustive matches.
	g := graph.New("K4")
	var ids []graph.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddNode("", graph.TupleOf("", "label", "X")))
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge("", ids[i], ids[j], nil)
		}
	}
	p := pattern.New("P")
	a := p.LabelNode("a", "X")
	b := p.LabelNode("b", "X")
	c := p.LabelNode("c", "X")
	p.AddEdge("", a, b, nil, nil)
	p.AddEdge("", b, c, nil, nil)
	p.AddEdge("", c, a, nil, nil)
	ix := BuildIndex(g, 1, false)

	ms, _, err := Find(p, g, ix, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 24 {
		t.Errorf("exhaustive = %d, want 24", len(ms))
	}
	ms, _, _ = Find(p, g, ix, Options{Exhaustive: false})
	if len(ms) != 1 {
		t.Errorf("first = %d, want 1", len(ms))
	}
	ms, st, _ := Find(p, g, ix, Options{Exhaustive: true, Limit: 10, CollectStats: true})
	if len(ms) != 10 || !st.Truncated {
		t.Errorf("limit: %d matches, truncated=%v", len(ms), st.Truncated)
	}
}

func TestInjectivity(t *testing.T) {
	// Two pattern nodes of the same label cannot map to one data node.
	g := graph.New("G")
	x := g.AddNode("", graph.TupleOf("", "label", "X"))
	g.AddEdge("", x, x, nil) // self loop
	p := pattern.New("P")
	a := p.LabelNode("a", "X")
	b := p.LabelNode("b", "X")
	p.AddEdge("", a, b, nil, nil)
	ms, _, err := Find(p, g, nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("injective mapping impossible, got %d matches", len(ms))
	}
}

func TestSelfLoopPattern(t *testing.T) {
	g := graph.New("G")
	x := g.AddNode("", graph.TupleOf("", "label", "X"))
	y := g.AddNode("", graph.TupleOf("", "label", "X"))
	g.AddEdge("", x, x, nil)
	g.AddEdge("", x, y, nil)
	p := pattern.New("P")
	a := p.LabelNode("a", "X")
	p.AddEdge("", a, a, nil, nil) // pattern self loop
	ms, _, err := Find(p, g, nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Nodes[0] != x {
		t.Errorf("self loop should match only node x: %v", ms)
	}
}

func TestDirectedMatching(t *testing.T) {
	g := graph.NewDirected("G")
	a := g.AddNode("", graph.TupleOf("", "label", "A"))
	b := g.AddNode("", graph.TupleOf("", "label", "B"))
	g.AddEdge("", a, b, nil) // a -> b only
	mk := func(forward bool) *pattern.Pattern {
		p := pattern.NewDirected("P")
		x := p.LabelNode("x", "A")
		y := p.LabelNode("y", "B")
		if forward {
			p.AddEdge("", x, y, nil, nil)
		} else {
			p.AddEdge("", y, x, nil, nil)
		}
		return p
	}
	ms, _, err := Find(mk(true), g, nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("forward edge should match, got %d", len(ms))
	}
	ms, _, _ = Find(mk(false), g, nil, Options{Exhaustive: true})
	if len(ms) != 0 {
		t.Errorf("reversed edge should not match, got %d", len(ms))
	}
}

func TestEdgePredicate(t *testing.T) {
	g := graph.New("G")
	a := g.AddNode("", graph.TupleOf("", "label", "A"))
	b := g.AddNode("", graph.TupleOf("", "label", "B"))
	g.AddEdge("", a, b, graph.TupleOf("", "kind", "billing"))
	g.AddEdge("", a, b, graph.TupleOf("", "kind", "shipping")) // parallel edge
	p := pattern.New("P")
	x := p.LabelNode("x", "A")
	y := p.LabelNode("y", "B")
	p.AddEdge("e", x, y, graph.TupleOf("", "kind", "shipping"), nil)
	ms, _, err := Find(p, g, nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	// The witnessing edge must be the shipping one.
	e := g.Edge(ms[0].Edges[0])
	if e.Attrs.GetOr("kind").AsString() != "shipping" {
		t.Errorf("witness edge kind = %v", e.Attrs.GetOr("kind"))
	}
}

func TestGlobalPredicate(t *testing.T) {
	// Two departments sharing the same company (the RDF intro example).
	g := graph.New("G")
	d1 := g.AddNode("", graph.TupleOf("dept", "company", "Acme"))
	d2 := g.AddNode("", graph.TupleOf("dept", "company", "Acme"))
	d3 := g.AddNode("", graph.TupleOf("dept", "company", "Globex"))
	s1 := g.AddNode("", graph.TupleOf("shipper", "name", "FastShip"))
	g.AddEdge("", d1, s1, nil)
	g.AddEdge("", d2, s1, nil)
	g.AddEdge("", d3, s1, nil)

	p := pattern.New("P")
	x := p.AddNode("x", graph.NewTuple("dept"), nil)
	y := p.AddNode("y", graph.NewTuple("dept"), nil)
	s := p.AddNode("s", graph.NewTuple("shipper"), nil)
	p.AddEdge("", x, s, nil, nil)
	p.AddEdge("", y, s, nil, nil)
	p.Where(expr.Binary{Op: expr.OpEq,
		L: expr.Name{Parts: []string{"x", "company"}},
		R: expr.Name{Parts: []string{"y", "company"}}})
	ms, _, err := Find(p, g, nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	// d1/d2 in both orders.
	if len(ms) != 2 {
		t.Errorf("matches = %d, want 2", len(ms))
	}
}

func TestGraphAttributePredicate(t *testing.T) {
	// P.booktitle = "SIGMOD" filters on the matched graph's attribute.
	mk := func(book string) *graph.Graph {
		g := graph.New("paper")
		g.Attrs = graph.TupleOf("inproceedings", "booktitle", book)
		g.AddNode("", graph.TupleOf("author", "name", "A"))
		return g
	}
	p := pattern.New("P")
	p.AddNode("v1", graph.NewTuple("author"), nil)
	p.Where(expr.Binary{Op: expr.OpEq,
		L: expr.Name{Parts: []string{"P", "booktitle"}},
		R: expr.Lit{Val: graph.String("SIGMOD")}})
	ms, _, err := Find(p, mk("SIGMOD"), nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("SIGMOD paper should match, got %d", len(ms))
	}
	ms, _, _ = Find(p, mk("VLDB"), nil, Options{Exhaustive: true})
	if len(ms) != 0 {
		t.Errorf("VLDB paper should not match, got %d", len(ms))
	}
}

func TestEmptyPattern(t *testing.T) {
	p := pattern.New("P")
	ms, _, err := Find(p, fig416(), nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("empty pattern should match once, got %d", len(ms))
	}
}

func TestNoFeasibleMates(t *testing.T) {
	p := pattern.New("P")
	p.LabelNode("a", "Z") // label absent from the graph
	ms, st, err := Find(p, fig416(), BuildIndex(fig416(), 1, false), Options{Exhaustive: true, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 || st.CandBaseline[0] != 0 {
		t.Errorf("no mates expected: %d matches, Φ0=%d", len(ms), st.CandBaseline[0])
	}
	if Log10Space(st.CandBaseline) != -400 {
		t.Errorf("empty space sentinel expected")
	}
}

// referenceMatch is a brute-force matcher used as ground truth: plain
// recursive enumeration with no index, pruning, or ordering.
func referenceMatch(t *testing.T, p *pattern.Pattern, g *graph.Graph) int {
	t.Helper()
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	n := p.Size()
	assign := make([]graph.NodeID, n)
	for i := range assign {
		assign[i] = graph.NoNode
	}
	used := make([]bool, g.NumNodes())
	count := 0
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			// Check every pattern edge and the global predicate.
			edges := make([]graph.EdgeID, p.Motif.NumEdges())
			for _, e := range p.Motif.Edges() {
				from, to := assign[e.From], assign[e.To]
				found := false
				for _, eid := range g.EdgesBetween(from, to) {
					de := g.Edge(eid)
					if g.Directed && (de.From != from || de.To != to) {
						continue
					}
					if ok, _ := p.EdgeMatches(e.ID, de.Attrs); ok {
						edges[e.ID] = eid
						found = true
						break
					}
				}
				if !found {
					return
				}
			}
			ok, _ := expr.Holds(p.Global, &bindEnv{p: p, g: g, nodes: assign, edges: edges})
			if ok {
				count++
			}
			return
		}
		for v := 0; v < g.NumNodes(); v++ {
			if used[v] {
				continue
			}
			ok, _ := p.NodeMatches(graph.NodeID(u), g.Node(graph.NodeID(v)).Attrs)
			if !ok {
				continue
			}
			assign[u] = graph.NodeID(v)
			used[v] = true
			rec(u + 1)
			used[v] = false
			assign[u] = graph.NoNode
		}
	}
	rec(0)
	return count
}

func randomGraph(rng *rand.Rand, n, m, labels int, directed bool) *graph.Graph {
	var g *graph.Graph
	if directed {
		g = graph.NewDirected("R")
	} else {
		g = graph.New("R")
	}
	for i := 0; i < n; i++ {
		g.AddNode("", graph.TupleOf("", "label", string(rune('A'+rng.Intn(labels)))))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge("", graph.NodeID(u), graph.NodeID(v), nil)
		}
	}
	return g
}

func randomPattern(rng *rand.Rand, k, labels int, directed bool) *pattern.Pattern {
	var p *pattern.Pattern
	if directed {
		p = pattern.NewDirected("P")
	} else {
		p = pattern.New("P")
	}
	ids := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		ids[i] = p.LabelNode("", string(rune('A'+rng.Intn(labels))))
	}
	// Spanning-ish connectivity plus extra edges.
	for i := 1; i < k; i++ {
		p.AddEdge("", ids[rng.Intn(i)], ids[i], nil, nil)
	}
	for e := rng.Intn(k); e > 0; e-- {
		u, v := rng.Intn(k), rng.Intn(k)
		if u != v && !p.Motif.HasEdgeBetween(ids[u], ids[v]) {
			p.AddEdge("", ids[u], ids[v], nil, nil)
		}
	}
	return p
}

// TestAgainstBruteForce cross-validates every optimization combination
// against the brute-force reference on random graphs and patterns: the
// access methods must never change the answer set size.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	opts := allOptions()
	for trial := 0; trial < 40; trial++ {
		directed := trial%4 == 3
		g := randomGraph(rng, 8+rng.Intn(6), 15+rng.Intn(15), 3, directed)
		p := randomPattern(rng, 2+rng.Intn(3), 3, directed)
		want := referenceMatch(t, p, g)
		ix := BuildIndex(g, 1, true)
		for oi, opt := range opts {
			ms, _, err := Find(p, g, ix, opt)
			if err != nil {
				t.Fatalf("trial %d opt %d: %v", trial, oi, err)
			}
			if len(ms) != want {
				t.Fatalf("trial %d opt %d (prune=%d refine=%v order=%d): got %d matches, want %d\npattern: %s\ngraph: %s",
					trial, oi, opt.Prune, opt.Refine, opt.Order, len(ms), want, p, g)
			}
		}
	}
}

// TestExtractedSubgraphAlwaysFound: a connected subgraph extracted from the
// graph itself must always be found (at least one match).
func TestExtractedSubgraphAlwaysFound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 20, 50, 4, false)
		// Random BFS-extracted connected node set of size <= 5.
		start := graph.NodeID(rng.Intn(g.NumNodes()))
		sel := []graph.NodeID{start}
		seen := map[graph.NodeID]bool{start: true}
		for len(sel) < 5 {
			v := sel[rng.Intn(len(sel))]
			adj := g.Adj(v)
			if len(adj) == 0 {
				break
			}
			w := adj[rng.Intn(len(adj))].To
			if !seen[w] {
				seen[w] = true
				sel = append(sel, w)
			}
		}
		p := pattern.New("P")
		idx := map[graph.NodeID]graph.NodeID{}
		for _, v := range sel {
			idx[v] = p.LabelNode("", g.Label(v))
		}
		for _, e := range g.Edges() {
			pu, ok1 := idx[e.From]
			pv, ok2 := idx[e.To]
			if ok1 && ok2 && !p.Motif.HasEdgeBetween(pu, pv) {
				p.AddEdge("", pu, pv, nil, nil)
			}
		}
		ix := BuildIndex(g, 1, true)
		for _, opt := range []Options{Baseline(), Optimized(), {Exhaustive: true, Prune: PruneSubgraph, Refine: true, Order: OrderDP}} {
			ms, _, err := Find(p, g, ix, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) == 0 {
				t.Fatalf("trial %d: extracted subgraph not found\npattern: %s", trial, p)
			}
		}
	}
}

// TestRefinementNeverOverprunes: refined spaces still contain every true
// match (follows from brute-force agreement, but checked directly on the
// candidate sets).
func TestRefinementNeverOverprunes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 12, 24, 3, false)
		p := randomPattern(rng, 3, 3, false)
		ix := BuildIndex(g, 1, false)
		msAll, _, err := Find(p, g, ix, Options{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := Find(p, g, ix, Options{Exhaustive: true, Refine: true, Prune: PruneProfile, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		// Every matched node must appear in the refined counts: check via
		// a re-run collecting matches with refinement (sizes equal).
		msRef, _, _ := Find(p, g, ix, Options{Exhaustive: true, Refine: true, Prune: PruneProfile})
		if len(msRef) != len(msAll) {
			t.Fatalf("trial %d: refinement changed answers %d -> %d", trial, len(msAll), len(msRef))
		}
		for u := range st.CandRefined {
			if st.CandRefined[u] > st.CandLocal[u] {
				t.Fatalf("refinement grew a candidate set")
			}
		}
	}
}

func TestSearchOrderStats(t *testing.T) {
	g := fig416()
	ix := BuildIndex(g, 1, false)
	p := trianglePattern()
	_, st, err := Find(p, g, ix, Options{Exhaustive: true, Order: OrderGreedy, FreqGamma: true, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Order) != 3 {
		t.Fatalf("order = %v", st.Order)
	}
	if st.EstCost <= 0 {
		t.Errorf("EstCost = %v, want > 0", st.EstCost)
	}
	// DP cost must never exceed greedy cost.
	_, stDP, _ := Find(p, g, ix, Options{Exhaustive: true, Order: OrderDP, FreqGamma: true, CollectStats: true})
	if stDP.EstCost > st.EstCost+1e-9 {
		t.Errorf("DP cost %v > greedy cost %v", stDP.EstCost, st.EstCost)
	}
}

// TestDPCostNeverWorse: on random inputs the exact planner's estimated cost
// is never worse than the greedy planner's.
func TestDPCostNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 15, 40, 3, false)
		p := randomPattern(rng, 4, 3, false)
		ix := BuildIndex(g, 1, false)
		_, g1, err := Find(p, g, ix, Options{Exhaustive: true, Order: OrderGreedy, FreqGamma: true, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		_, g2, err := Find(p, g, ix, Options{Exhaustive: true, Order: OrderDP, FreqGamma: true, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		if g2.EstCost > g1.EstCost*(1+1e-9) {
			t.Fatalf("trial %d: DP cost %v > greedy %v", trial, g2.EstCost, g1.EstCost)
		}
	}
}

func TestExists(t *testing.T) {
	g := fig416()
	ok, err := Exists(trianglePattern(), g, nil, Options{})
	if err != nil || !ok {
		t.Errorf("Exists = %v,%v", ok, err)
	}
	p := pattern.New("P")
	p.LabelNode("z", "Z")
	ok, _ = Exists(p, g, nil, Options{})
	if ok {
		t.Error("Z pattern should not exist")
	}
}

func TestLog10Space(t *testing.T) {
	if got := Log10Space([]int{10, 10, 10}); got < 2.999 || got > 3.001 {
		t.Errorf("Log10Space = %v, want 3", got)
	}
	if got := Log10Space(nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

// TestRadius2Soundness: profile pruning with a radius-2 index must not
// change the answer set (it is a necessary-condition filter at any radius).
func TestRadius2Soundness(t *testing.T) {
	rng := rand.New(rand.NewSource(222))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 15, 35, 3, false)
		p := randomPattern(rng, 3, 3, false)
		ix1 := BuildIndex(g, 1, true)
		ix2 := BuildIndex(g, 2, true)
		want, _, err := Find(p, g, nil, Options{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{ix1, ix2} {
			for _, prune := range []LocalPrune{PruneProfile, PruneSubgraph} {
				got, _, err := Find(p, g, ix, Options{Exhaustive: true, Prune: prune, Refine: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d radius=%d prune=%d: %d matches, want %d",
						trial, ix.Nbr.Radius, prune, len(got), len(want))
				}
			}
		}
	}
}

// TestCandidateMonotonicity: refined ⊆ local ⊆ baseline candidate sets,
// per node, on random inputs (quick property over the Stats counters).
func TestCandidateMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 20, 45, 3, false)
		p := randomPattern(rng, 3, 3, false)
		ix := BuildIndex(g, 1, true)
		for _, prune := range []LocalPrune{PruneProfile, PruneSubgraph} {
			_, st, err := Find(p, g, ix, Options{Exhaustive: true, Prune: prune, Refine: true, CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			for u := range st.CandBaseline {
				if st.CandLocal[u] > st.CandBaseline[u] {
					t.Fatalf("local > baseline at node %d", u)
				}
				if st.CandRefined[u] > st.CandLocal[u] {
					t.Fatalf("refined > local at node %d", u)
				}
			}
		}
	}
}

// TestSharedIndexConcurrentFind: one index shared by concurrent optimized
// evaluations whose patterns carry labels the graph lacks and unlabelled
// nodes. The pattern-side profiles must only read the index's interner
// (run under -race); the answers must equal the baseline's.
func TestSharedIndexConcurrentFind(t *testing.T) {
	g := fig416()
	ix := BuildIndex(g, 1, false)
	mk := func(i int) *pattern.Pattern {
		p := pattern.New("P")
		a := p.LabelNode("a", "A")
		b := p.LabelNode("b", fmt.Sprintf("Z%d", i))
		c := p.AddNode("c", nil, nil)
		p.AddEdge("", a, b, nil, nil)
		p.AddEdge("", a, c, nil, nil)
		return p
	}
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := mk(w*50 + i)
				ms, _, err := Find(p, g, ix, Optimized())
				if err != nil || len(ms) != 0 {
					errs[w] = fmt.Sprintf("worker %d: %d rows, err %v", w, len(ms), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
	if _, ok := ix.Labels.In.Lookup("Z0"); ok {
		t.Fatal("a pattern label was interned into the shared index")
	}
	p := pattern.New("P")
	a := p.LabelNode("a", "A")
	c := p.AddNode("c", nil, nil)
	p.AddEdge("", a, c, nil, nil)
	got, _, err := Find(p, g, ix, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Find(p, g, nil, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("optimized rows %v, baseline rows %v", got, want)
	}
}
