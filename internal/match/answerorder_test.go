package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

// referenceMappings is the answer-order reference: plain recursive
// enumeration in declaration order over every data node by ID, each pattern
// edge checked once both ends are placed with the first satisfying witness —
// no index, pruning or ordering. Its rows are lexicographic in
// match.Mapping.Nodes by construction. The patterns here carry no residual
// predicate.
func referenceMappings(t *testing.T, p *pattern.Pattern, g *graph.Graph) []match.Mapping {
	t.Helper()
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if p.Global != nil {
		t.Fatal("reference: residual predicates are not supported")
	}
	n := p.Size()
	assign := make([]graph.NodeID, n)
	edges := make([]graph.EdgeID, p.Motif.NumEdges())
	used := make([]bool, g.NumNodes())
	// witnessed checks every pattern edge whose later end is u.
	witnessed := func(u int) bool {
		for _, e := range p.Motif.Edges() {
			if max(e.From, e.To) != graph.NodeID(u) {
				continue
			}
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
				return false
			}
		}
		return true
	}
	var out []match.Mapping
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			out = append(out, match.Mapping{Nodes: slices.Clone(assign), Edges: slices.Clone(edges)})
			return
		}
		for v := 0; v < g.NumNodes(); v++ {
			if used[v] {
				continue
			}
			if ok, _ := p.NodeMatches(graph.NodeID(u), g.Node(graph.NodeID(v)).Attrs); !ok {
				continue
			}
			assign[u] = graph.NodeID(v)
			if !witnessed(u) {
				continue
			}
			used[v] = true
			rec(u + 1)
			used[v] = false
		}
	}
	rec(0)
	return out
}

// sameRows reports the first difference between two answers, or "".
func sameRows(got, want []match.Mapping) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Nodes, want[i].Nodes) || !slices.Equal(got[i].Edges, want[i].Edges) {
			return fmt.Sprintf("row %d = %v/%v, want %v/%v", i, got[i].Nodes, got[i].Edges, want[i].Nodes, want[i].Edges)
		}
	}
	return ""
}

// everyMethod enumerates the access-method combinations: prune × refine ×
// order × frequency estimate × AdjIterate, exhaustive and unlimited.
func everyMethod() []match.Options {
	var out []match.Options
	for _, prune := range []match.LocalPrune{match.PruneNone, match.PruneProfile, match.PruneSubgraph} {
		for _, refine := range []bool{false, true} {
			for _, order := range []match.OrderMode{match.OrderInput, match.OrderGreedy, match.OrderDP} {
				for _, fg := range []bool{false, true} {
					for _, adj := range []bool{false, true} {
						out = append(out, match.Options{Exhaustive: true, Prune: prune, Refine: refine, Order: order, FreqGamma: fg, AdjIterate: adj})
					}
				}
			}
		}
	}
	return out
}

// directed copies g with every edge oriented as stored: gen's graphs are
// undirected, and orientation changes which witness an edge check takes.
func directed(g *graph.Graph) *graph.Graph {
	d := graph.NewDirected(g.Name)
	for _, n := range g.Nodes() {
		d.AddNode("", n.Attrs)
	}
	for _, e := range g.Edges() {
		d.AddEdge("", e.From, e.To, nil)
	}
	return d
}

// orderCases draws random graphs and patterns: gen's Erdős–Rényi graphs
// with its clique and connected-subgraph queries (one node sometimes
// stripped of its label), every fourth case directed.
func orderCases(rng *rand.Rand, trials int) (gs []*graph.Graph, ps []*pattern.Pattern) {
	for len(gs) < trials {
		dir := len(gs)%4 == 3
		g := gen.ER(20+rng.Intn(30), 40+rng.Intn(80), 2+rng.Intn(4), rng.Int63())
		var p *pattern.Pattern
		if rng.Intn(2) == 0 {
			p = gen.CliqueQuery(2+rng.Intn(3), gen.TopLabels(g, 3), rng)
		} else {
			p = gen.SubgraphQuery(g, 2+rng.Intn(4), rng)
		}
		if p == nil {
			continue
		}
		if dir || rng.Intn(3) == 0 {
			// Rebuild directed, or with one unlabelled node (profiles then
			// skip it, and retrieval scans for it).
			q := pattern.New("Q")
			if dir {
				q = pattern.NewDirected("Q")
				g = directed(g)
			}
			skip := graph.NodeID(rng.Intn(p.Size()))
			for _, nd := range p.Motif.Nodes() {
				if l, ok := p.ConstLabel(nd.ID); ok && (dir || nd.ID != skip) {
					q.LabelNode("", l)
				} else {
					q.AddNode("", nil, nil)
				}
			}
			for _, e := range p.Motif.Edges() {
				q.AddEdge("", e.From, e.To, nil, nil)
			}
			p = q
		}
		gs, ps = append(gs, g), append(ps, p)
	}
	return gs, ps
}

// TestAnswerOrderPlanIndependent: every combination of access methods —
// prune × refine × order × frequency estimate × AdjIterate, with and
// without an index — returns the reference's rows byte for byte, in the
// reference's order, exhaustive and unlimited.
func TestAnswerOrderPlanIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	gs, ps := orderCases(rng, 40)
	for trial, g := range gs {
		p := ps[trial]
		want := referenceMappings(t, p, g)
		ix := match.BuildIndex(g, 1, true)
		for _, withIx := range []*match.Index{nil, ix} {
			for oi, opt := range everyMethod() {
				got, _, err := match.Find(p, g, withIx, opt)
				if err != nil {
					t.Fatalf("trial %d opt %d: %v", trial, oi, err)
				}
				if d := sameRows(got, want); d != "" {
					t.Fatalf("trial %d opt %+v indexed=%v: %s\npattern: %s", trial, opt, withIx != nil, d, p)
				}
			}
		}
	}
}

// TestAnswerPrefixDeclarationOrder: under declaration order, first-match
// and Limit return the reference's prefix whatever the pruning and
// refinement — the rule the store applies to indexed members when the
// query does not ask for every row.
func TestAnswerPrefixDeclarationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	gs, ps := orderCases(rng, 40)
	for trial, g := range gs {
		p := ps[trial]
		want := referenceMappings(t, p, g)
		ix := match.BuildIndex(g, 1, false)
		for _, withIx := range []*match.Index{nil, ix} {
			for _, prune := range []match.LocalPrune{match.PruneNone, match.PruneProfile} {
				for _, refine := range []bool{false, true} {
					for _, limit := range []int{0, 1, 2, 5} {
						opt := match.Options{Exhaustive: limit > 0, Limit: limit, Prune: prune, Refine: refine}
						got, _, err := match.Find(p, g, withIx, opt)
						if err != nil {
							t.Fatal(err)
						}
						k := min(max(limit, 1), len(want))
						if d := sameRows(got, want[:k]); d != "" {
							t.Fatalf("trial %d opt %+v indexed=%v: %s\npattern: %s", trial, opt, withIx != nil, d, p)
						}
					}
				}
			}
		}
	}
}
