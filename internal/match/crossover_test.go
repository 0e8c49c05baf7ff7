package match_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

// BenchmarkIndexCrossover measures where a per-graph index starts to pay:
// for preferential-attachment and Erdős–Rényi graphs of growing size
// (average degree 8, one label per 16 nodes), one op is a pass over 40
// clique queries of sizes 2–5 (half sampled from the graph, half over its
// frequent labels), matched with the baseline and no index, or with
// match.Optimized over a prebuilt index; "build" times match.BuildIndex
// itself. The store's member-index size constant is read from this
// crossover (DESIGN.md §9):
//
//	go test ./internal/match -run '^$' -bench IndexCrossover
func BenchmarkIndexCrossover(b *testing.B) {
	for _, kind := range []string{"pa", "er"} {
		for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024} {
			m := min(4*n, n*(n-1)/4)
			var g *graph.Graph
			if kind == "pa" {
				g = gen.PrefAttach(n, m, max(4, n/16), 1)
			} else {
				g = gen.ER(n, m, max(4, n/16), 1)
			}
			rng := rand.New(rand.NewSource(1))
			top := gen.TopLabels(g, 40)
			var ps []*pattern.Pattern
			for size := 2; size <= 5; size++ {
				for k := 0; k < 10; k++ {
					var p *pattern.Pattern
					if k%2 == 0 {
						p = gen.GraphCliqueQuery(g, size, rng)
					}
					if p == nil {
						p = gen.CliqueQuery(size, top, rng)
					}
					ps = append(ps, p)
				}
			}
			ix := match.BuildIndex(g, 1, false)
			name := fmt.Sprintf("%s/nodes=%d", kind, n)
			b.Run(name+"/baseline", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range ps {
						if _, _, err := match.Find(p, g, nil, match.Baseline()); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(name+"/indexed", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range ps {
						if _, _, err := match.Find(p, g, ix, match.Optimized()); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(name+"/build", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					match.BuildIndex(g, 1, false)
				}
			})
		}
	}
}
