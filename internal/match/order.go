package match

import (
	"math"
	"math/bits"

	"gqldb/internal/graph"
)

// This file implements the §4.4 search-order optimization. A search order
// is a left-deep join plan over the pattern nodes; the cost model estimates
// each join's cost as the product of the input cardinalities (Definition
// 4.12) and its result size as that product scaled by a reduction factor γ
// (Definition 4.11). γ is either the constant gamma or, with
// Options.FreqGamma, the product of edge probabilities
// P(e(u,v)) = freq(e(u,v)) / (freq(u)·freq(v)) estimated from the label
// statistics of the data graph.
const gamma = 0.5

// edgeGamma returns the reduction factor contributed by the pattern edge
// between nodes a and b.
func (s *searcher) edgeGamma(a, b graph.NodeID) float64 {
	if s.opt.FreqGamma && s.ix != nil {
		la, okA := s.p.ConstLabel(a)
		lb, okB := s.p.ConstLabel(b)
		if okA && okB {
			fa, fb := s.ix.Labels.Freq(la), s.ix.Labels.Freq(lb)
			fe := s.ix.Labels.EdgeFreq(la, lb)
			if fa > 0 && fb > 0 {
				pe := float64(fe) / (float64(fa) * float64(fb))
				if pe > 1 {
					pe = 1
				}
				if pe <= 0 {
					pe = 1e-9 // zero-frequency edge: strongly selective
				}
				return pe
			}
		}
	}
	return gamma
}

// joinGamma multiplies the reduction factors of every pattern edge between
// candidate c and the set chosen so far (ℰ(i) of §4.4); 1.0 when none.
func (s *searcher) joinGamma(c graph.NodeID, chosen func(graph.NodeID) bool) float64 {
	g := 1.0
	for _, e := range s.p.Motif.Edges() {
		var other graph.NodeID
		switch {
		case e.From == c && e.To != c:
			other = e.To
		case e.To == c && e.From != c:
			other = e.From
		default:
			continue
		}
		if chosen(other) {
			g *= s.edgeGamma(c, other)
		}
	}
	return g
}

// greedyOrder implements the paper's planner: start from the smallest
// feasible-mate set, then repeatedly join the leaf that minimizes the
// estimated join cost, breaking ties by the smaller estimated result size.
func (s *searcher) greedyOrder() ([]graph.NodeID, float64) {
	n := s.p.Size()
	order := make([]graph.NodeID, 0, n)
	inSet := make([]bool, n)
	chosen := func(u graph.NodeID) bool { return inSet[u] }

	first := graph.NodeID(0)
	for u := 1; u < n; u++ {
		if len(s.phi[u]) < len(s.phi[first]) {
			first = graph.NodeID(u)
		}
	}
	order = append(order, first)
	inSet[first] = true
	size := float64(len(s.phi[first]))
	total := 0.0

	for len(order) < n { // grows order every iteration; bounded by pattern size n, not data
		best := graph.NodeID(-1)
		bestCost, bestSize := math.Inf(1), math.Inf(1)
		for u := 0; u < n; u++ {
			if inSet[u] {
				continue
			}
			c := graph.NodeID(u)
			cost := size * float64(len(s.phi[u]))
			outSize := cost * s.joinGamma(c, chosen)
			if cost < bestCost || (cost == bestCost && outSize < bestSize) {
				best, bestCost, bestSize = c, cost, outSize
			}
		}
		order = append(order, best)
		inSet[best] = true
		total += bestCost
		size = bestSize
	}
	return order, total
}

// dpOrder finds the minimum-cost left-deep order exactly by dynamic
// programming over node subsets. The result size of a subset is
// order-independent (every internal pattern edge contributes its γ exactly
// once), so the DP state is just the subset. O(2^k · k^2); used for
// ablation on small patterns.
func (s *searcher) dpOrder() ([]graph.NodeID, float64) {
	n := s.p.Size()
	full := (1 << n) - 1

	// size[S] = Π|Φ(u)| · Πγ(e) over edges inside S.
	size := make([]float64, full+1)
	cost := make([]float64, full+1)
	back := make([]int8, full+1)
	for S := 1; S <= full; S++ {
		cost[S] = math.Inf(1)
	}
	size[0] = 1
	for S := 1; S <= full; S++ {
		// Compute size[S] incrementally from S without its lowest bit.
		low := S & -S
		c := graph.NodeID(setBit(low))
		prev := S &^ low
		g := 1.0
		for _, e := range s.p.Motif.Edges() {
			var other graph.NodeID
			switch {
			case e.From == c && e.To != c:
				other = e.To
			case e.To == c && e.From != c:
				other = e.From
			default:
				continue
			}
			if prev&(1<<other) != 0 {
				g *= s.edgeGamma(c, other)
			}
		}
		size[S] = size[prev] * float64(len(s.phi[c])) * g
	}
	for u := 0; u < n; u++ {
		S := 1 << u
		cost[S] = 0
		back[S] = int8(u)
	}
	for S := 1; S <= full; S++ {
		if math.IsInf(cost[S], 1) {
			continue
		}
		for u := 0; u < n; u++ {
			if S&(1<<u) != 0 {
				continue
			}
			T := S | 1<<u
			c := cost[S] + size[S]*float64(len(s.phi[u]))
			if c < cost[T] {
				cost[T] = c
				back[T] = int8(u)
			}
		}
	}
	order := make([]graph.NodeID, n)
	S := full
	for i := n - 1; i >= 0; i-- {
		u := back[S]
		order[i] = graph.NodeID(u)
		S &^= 1 << u
	}
	return order, cost[full]
}

// setBit returns the index of the single set bit in x.
func setBit(x int) int {
	return bits.Len(uint(x)) - 1
}
