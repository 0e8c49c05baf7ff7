package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

func bigCollection(n int) graph.Collection {
	rng := rand.New(rand.NewSource(33))
	var out graph.Collection
	for i := 0; i < n; i++ {
		g := graph.New(fmt.Sprintf("g%d", i))
		k := 3 + rng.Intn(5)
		for j := 0; j < k; j++ {
			g.AddNode("", graph.TupleOf("", "label", string(rune('A'+rng.Intn(3)))))
		}
		for j := 0; j < 2*k; j++ {
			u, v := rng.Intn(k), rng.Intn(k)
			if u != v && !g.HasEdgeBetween(graph.NodeID(u), graph.NodeID(v)) {
				g.AddEdge("", graph.NodeID(u), graph.NodeID(v), nil)
			}
		}
		out = append(out, g)
	}
	return out
}

func edgePattern() *pattern.Pattern {
	p := pattern.New("P")
	a := p.LabelNode("a", "A")
	b := p.LabelNode("b", "B")
	p.AddEdge("", a, b, nil, nil)
	return p
}

// referenceSelection is the oracle the selection tests compare against: a
// plain loop over the collection with match.Find. It shares nothing with the
// kernel — no pool, no rounds, no candidate list, no spans.
func referenceSelection(t testing.TB, p *pattern.Pattern, c graph.Collection, opt match.Options, ixFor func(*graph.Graph) *match.Index) Matched {
	t.Helper()
	var out Matched
	for _, g := range c {
		var ix *match.Index
		if ixFor != nil {
			ix = ixFor(g)
		}
		maps, _, err := match.Find(p, g, ix, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range maps {
			out = append(out, &MatchedGraph{P: p, G: g, M: m})
		}
	}
	return out
}

// TestParallelSelectionMatchesSequential: identical results (count, graphs
// and binding order) for any worker count.
func TestParallelSelectionMatchesSequential(t *testing.T) {
	c := bigCollection(60)
	p := edgePattern()
	opt := match.Options{Exhaustive: true}
	want := referenceSelection(t, p, c, opt, nil)
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		got, err := SelectionContext(context.Background(), p, c, opt, nil, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].G != want[i].G {
				t.Fatalf("workers=%d: output order differs at %d", workers, i)
			}
			for u := range want[i].M.Nodes {
				if got[i].M.Nodes[u] != want[i].M.Nodes[u] {
					t.Fatalf("workers=%d: binding differs at %d", workers, i)
				}
			}
		}
	}
}

func TestParallelSelectionEmpty(t *testing.T) {
	p := edgePattern()
	got, err := SelectionContext(context.Background(), p, nil, match.Options{Exhaustive: true}, nil, 4, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty collection: %v, %v", got, err)
	}
}

func BenchmarkSelection(b *testing.B) {
	c := bigCollection(400)
	p := edgePattern()
	opt := match.Options{Exhaustive: true}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SelectionContext(context.Background(), p, c, opt, nil, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SelectionContext(context.Background(), p, c, opt, nil, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
