package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gqldb/internal/graph"
)

// fig416 builds the database graph G of Figure 4.16: A1-B1, B1-C2, C2-A1,
// A1-C1, B2-C2, B2-A2. (Edges: the triangle A1,B1,C2 plus pendant C1 on A1,
// and path A2-B2-C2.)
func fig416(t testing.TB) *graph.Graph {
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

func TestLabelIndexLookup(t *testing.T) {
	g := fig416(t)
	ix := BuildLabelIndex(g)
	if got := len(ix.Lookup("A")); got != 2 {
		t.Errorf("Lookup(A) = %d nodes, want 2", got)
	}
	if got := len(ix.Lookup("Z")); got != 0 {
		t.Errorf("Lookup(Z) = %d nodes, want 0", got)
	}
	if ix.Freq("B") != 2 || ix.Freq("Z") != 0 {
		t.Errorf("Freq wrong: B=%d Z=%d", ix.Freq("B"), ix.Freq("Z"))
	}
	if ix.NumNodes() != 6 || ix.NumEdges() != 6 {
		t.Errorf("counts = %d/%d", ix.NumNodes(), ix.NumEdges())
	}
}

func TestEdgeFreq(t *testing.T) {
	g := fig416(t)
	ix := BuildLabelIndex(g)
	if got := ix.EdgeFreq("A", "B"); got != 2 { // A1-B1, B2-A2
		t.Errorf("EdgeFreq(A,B) = %d, want 2", got)
	}
	if got := ix.EdgeFreq("B", "A"); got != 2 { // symmetric
		t.Errorf("EdgeFreq(B,A) = %d, want 2", got)
	}
	if got := ix.EdgeFreq("A", "C"); got != 2 { // C2-A1, A1-C1
		t.Errorf("EdgeFreq(A,C) = %d, want 2", got)
	}
	if got := ix.EdgeFreq("A", "A"); got != 0 {
		t.Errorf("EdgeFreq(A,A) = %d, want 0", got)
	}
}

func TestTopLabels(t *testing.T) {
	g := graph.New("G")
	for i := 0; i < 5; i++ {
		g.AddNode("", graph.TupleOf("", "label", "X"))
	}
	for i := 0; i < 3; i++ {
		g.AddNode("", graph.TupleOf("", "label", "Y"))
	}
	g.AddNode("", graph.TupleOf("", "label", "Z"))
	ix := BuildLabelIndex(g)
	top := ix.TopLabels(2)
	if len(top) != 2 || top[0] != "X" || top[1] != "Y" {
		t.Errorf("TopLabels = %v", top)
	}
	if got := ix.TopLabels(99); len(got) != 3 {
		t.Errorf("TopLabels(99) = %v", got)
	}
}

// TestProfilesFig417 checks the profiles of Figure 4.17: A1->ABBCC? No — the
// chapter lists A1: ABCC, B1: ABC, B2: ABC? Figure 4.17 gives profiles
// A1=ABCC, A2=AB, B1=ABC, B2=ABC (radius 1: B2,A2,C2), C1=AC, C2=ABBC.
func TestProfilesFig417(t *testing.T) {
	g := fig416(t)
	ix := BuildLabelIndex(g)
	nb := BuildNeighborhoods(g, ix.NodeLabels(), 1, true)
	want := map[string]string{
		"A1": "ABCC",
		"A2": "AB",
		"B1": "ABC",
		"B2": "ABC",
		"C1": "AC",
		"C2": "ABBC",
	}
	for name, prof := range want {
		v, _ := g.NodeByName(name)
		got := ""
		for _, l := range nb.Profiles[v] {
			got += ix.In.Name(l)
		}
		if got != prof {
			t.Errorf("profile(%s) = %q, want %q", name, got, prof)
		}
	}
}

func TestProfileContains(t *testing.T) {
	p := func(s string) []int32 {
		out := make([]int32, len(s))
		for i, c := range s {
			out[i] = int32(c)
		}
		return out
	}
	cases := []struct {
		big, small string
		want       bool
	}{
		{"ABCC", "ABC", true},
		{"ABC", "ABCC", false},
		{"ABC", "ABC", true},
		{"ABBC", "ABC", true},
		{"ABC", "ABD", false},
		{"ABC", "", true},
		{"", "A", false},
		{"AABB", "AA", true},
		{"AB", "AA", false},
	}
	for _, c := range cases {
		if got := ProfileContains(p(c.big), p(c.small)); got != c.want {
			t.Errorf("ProfileContains(%q,%q) = %v, want %v", c.big, c.small, got, c.want)
		}
	}
}

// TestSubgraphPruningFig417 reproduces the Figure 4.17 search spaces for the
// triangle pattern A-B-C: by nodes {A1,A2}×{B1,B2}×{C1,C2}; by neighborhood
// subgraphs {A1}×{B1}×{C2}; by profiles {A1}×{B1,B2}×{C2}.
func TestSubgraphPruningFig417(t *testing.T) {
	g := fig416(t)
	ix := BuildLabelIndex(g)
	nb := BuildNeighborhoods(g, ix.NodeLabels(), 1, true)

	// Pattern: triangle A-B-C; its radius-1 neighborhoods are the whole
	// triangle for each node.
	pg := graph.New("P")
	pa := pg.AddNode("a", graph.TupleOf("", "label", "A"))
	pb := pg.AddNode("b", graph.TupleOf("", "label", "B"))
	pc := pg.AddNode("c", graph.TupleOf("", "label", "C"))
	pg.AddEdge("", pa, pb, nil)
	pg.AddEdge("", pb, pc, nil)
	pg.AddEdge("", pc, pa, nil)
	pnb := BuildNeighborhoods(pg, lookupLabels(t, pg, ix.In), 1, true)

	keepSub := map[string][]string{"a": nil, "b": nil, "c": nil}
	keepProf := map[string][]string{"a": nil, "b": nil, "c": nil}
	for pi, pname := range []string{"a", "b", "c"} {
		label := []string{"A", "B", "C"}[pi]
		u, _ := pg.NodeByName(pname)
		for _, v := range ix.Lookup(label) {
			if ProfileContains(nb.Profiles[v], pnb.Profiles[u]) {
				keepProf[pname] = append(keepProf[pname], g.Node(v).Name)
			}
			if SubIsomorphic(pnb.Subs[u], nb.Subs[v]) {
				keepSub[pname] = append(keepSub[pname], g.Node(v).Name)
			}
		}
	}
	wantSub := map[string][]string{"a": {"A1"}, "b": {"B1"}, "c": {"C2"}}
	wantProf := map[string][]string{"a": {"A1"}, "b": {"B1", "B2"}, "c": {"C2"}}
	for k := range wantSub {
		if !sameStrings(keepSub[k], wantSub[k]) {
			t.Errorf("subgraph mates(%s) = %v, want %v", k, keepSub[k], wantSub[k])
		}
		if !sameStrings(keepProf[k], wantProf[k]) {
			t.Errorf("profile mates(%s) = %v, want %v", k, keepProf[k], wantProf[k])
		}
	}
}

// lookupLabels maps every node of g to its label's ID in in, which must
// already hold each label.
func lookupLabels(t *testing.T, g *graph.Graph, in *Interner) []int32 {
	t.Helper()
	out := make([]int32, g.NumNodes())
	for v := range out {
		id, ok := in.Lookup(g.Label(graph.NodeID(v)))
		if !ok {
			t.Fatalf("label %q not interned", g.Label(graph.NodeID(v)))
		}
		out[v] = id
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRadius2Profiles(t *testing.T) {
	// Path A-B-C: radius-2 profile of A covers all three nodes.
	g := graph.New("G")
	a := g.AddNode("a", graph.TupleOf("", "label", "A"))
	b := g.AddNode("b", graph.TupleOf("", "label", "B"))
	c := g.AddNode("c", graph.TupleOf("", "label", "C"))
	g.AddEdge("", a, b, nil)
	g.AddEdge("", b, c, nil)
	labels := BuildLabelIndex(g).NodeLabels()
	nb1 := BuildNeighborhoods(g, labels, 1, false)
	nb2 := BuildNeighborhoods(g, labels, 2, false)
	if len(nb1.Profiles[a]) != 2 {
		t.Errorf("radius-1 profile of a has %d labels, want 2", len(nb1.Profiles[a]))
	}
	if len(nb2.Profiles[a]) != 3 {
		t.Errorf("radius-2 profile of a has %d labels, want 3", len(nb2.Profiles[a]))
	}
}

// Property: profile pruning is implied by subgraph pruning (subgraph test is
// strictly stronger), and both are implied by an actual embedding extension.
func TestSubgraphImpliesProfile(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLabelled(rng, 12, 20, 3)
		nb := BuildNeighborhoods(g, BuildLabelIndex(g).NodeLabels(), 1, true)
		// Compare every pair of nodes as (pattern-center, data-center).
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if SubIsomorphic(nb.Subs[u], nb.Subs[v]) &&
					!ProfileContains(nb.Profiles[v], nb.Profiles[u]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: every node's neighborhood is sub-isomorphic to itself and its
// profile contains itself (reflexivity).
func TestNeighborhoodReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomLabelled(rng, 30, 60, 4)
	nb := BuildNeighborhoods(g, BuildLabelIndex(g).NodeLabels(), 1, true)
	for v := 0; v < g.NumNodes(); v++ {
		if !SubIsomorphic(nb.Subs[v], nb.Subs[v]) {
			t.Fatalf("node %d: neighborhood not self-sub-isomorphic", v)
		}
		if !ProfileContains(nb.Profiles[v], nb.Profiles[v]) {
			t.Fatalf("node %d: profile does not contain itself", v)
		}
	}
}

func randomLabelled(rng *rand.Rand, n, m, labels int) *graph.Graph {
	g := graph.New("R")
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

// TestIndexMatchesReference checks the label index and the radius-1 and
// radius-2 profiles against brute force on random graphs, directed and
// undirected: Lookup(l) is every node labelled l in ID order, Freq and
// EdgeFreq count by scanning, and a profile is the sorted label multiset of
// the nodes within the radius (reached over edges of either orientation).
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		g := randomLabelled(rng, 1+rng.Intn(40), rng.Intn(120), 1+rng.Intn(6))
		if iter%2 == 1 {
			// A directed copy: Directed must be set before edges are added.
			d := graph.New("D")
			d.Directed = true
			for _, n := range g.Nodes() {
				d.AddNode("", n.Attrs)
			}
			for _, e := range g.Edges() {
				d.AddEdge("", e.From, e.To, nil)
			}
			g = d
		}
		ix := BuildLabelIndex(g)
		for l := 0; l < 7; l++ {
			label := string(rune('A' + l))
			var want []graph.NodeID
			for _, n := range g.Nodes() {
				if g.Label(n.ID) == label {
					want = append(want, n.ID)
				}
			}
			got := ix.Lookup(label)
			if len(got) != len(want) || ix.Freq(label) != len(want) {
				t.Fatalf("iter %d: Lookup(%s) = %v (freq %d), want %v", iter, label, got, ix.Freq(label), want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iter %d: Lookup(%s) = %v, want %v", iter, label, got, want)
				}
			}
			for l2 := 0; l2 < 7; l2++ {
				label2 := string(rune('A' + l2))
				n := 0
				for _, e := range g.Edges() {
					a, b := g.Label(e.From), g.Label(e.To)
					if (a == label && b == label2) || (a == label2 && b == label) {
						n++
					}
				}
				if got := ix.EdgeFreq(label, label2); got != n {
					t.Fatalf("iter %d: EdgeFreq(%s,%s) = %d, want %d", iter, label, label2, got, n)
				}
			}
		}
		for radius := 1; radius <= 2; radius++ {
			nb := BuildNeighborhoods(g, ix.NodeLabels(), radius, false)
			for v := 0; v < g.NumNodes(); v++ {
				dist := map[graph.NodeID]int{graph.NodeID(v): 0}
				frontier := []graph.NodeID{graph.NodeID(v)}
				for d := 1; d <= radius; d++ {
					var next []graph.NodeID
					for _, e := range g.Edges() {
						for _, w := range frontier {
							for _, x := range [2][2]graph.NodeID{{e.From, e.To}, {e.To, e.From}} {
								if x[0] != w {
									continue
								}
								if _, ok := dist[x[1]]; !ok {
									dist[x[1]] = d
									next = append(next, x[1])
								}
							}
						}
					}
					frontier = next
				}
				var want []string
				for w := range dist {
					want = append(want, g.Label(w))
				}
				sort.Strings(want)
				prof := nb.Profiles[v]
				var got []string
				for i, id := range prof {
					if i > 0 && prof[i-1] > id {
						t.Fatalf("iter %d radius %d: profile(%d) = %v is not sorted", iter, radius, v, prof)
					}
					got = append(got, ix.In.Name(id))
				}
				sort.Strings(got)
				if !sameStrings(got, want) {
					t.Fatalf("iter %d radius %d: profile(%d) = %v, want %v", iter, radius, v, got, want)
				}
			}
		}
	}
}
