package index

import (
	"slices"

	"gqldb/internal/graph"
)

// NbrSub is the radius-r neighborhood subgraph of one node (Definition
// 4.10): the members within distance r of the center plus all edges among
// them. Member 0 is always the center. Adjacency is a bit matrix so the
// pinned sub-isomorphism test does O(1) edge probes.
type NbrSub struct {
	// Members are the node IDs in the host graph; Members[0] is the center.
	Members []graph.NodeID
	// Labels[i] is the interned label of Members[i].
	Labels []int32
	// adj is a row-major bit matrix: bit j of row i says members i,j are
	// adjacent in the host graph.
	adj    []uint64
	stride int
}

func (s *NbrSub) setAdj(i, j int) {
	s.adj[i*s.stride+j/64] |= 1 << (j % 64)
	s.adj[j*s.stride+i/64] |= 1 << (i % 64)
}

// Adjacent reports whether members i and j are adjacent.
func (s *NbrSub) Adjacent(i, j int) bool {
	return s.adj[i*s.stride+j/64]&(1<<(j%64)) != 0
}

// Size returns the number of members.
func (s *NbrSub) Size() int { return len(s.Members) }

// Neighborhoods stores per-node profiles and (optionally) neighborhood
// subgraphs for one graph at a fixed radius.
type Neighborhoods struct {
	Radius int
	// Profiles[v] is the sorted interned-label sequence of v's
	// neighborhood ("a sequence of the node labels in lexicographic
	// order", §4.2), including v itself.
	Profiles [][]int32
	// Subs[v] is v's neighborhood subgraph; nil when not materialized.
	Subs []*NbrSub
}

// BuildNeighborhoods computes profiles (always) and neighborhood subgraphs
// (when withSubgraphs) for every node of g. labels[v] is node v's interned
// label (LabelIndex.NodeLabels for a data graph), so data and pattern
// neighborhoods share one label space; it is only read.
func BuildNeighborhoods(g *graph.Graph, labels []int32, radius int, withSubgraphs bool) *Neighborhoods {
	n := g.NumNodes()
	nb := &Neighborhoods{
		Radius:   radius,
		Profiles: make([][]int32, n),
	}
	if withSubgraphs {
		nb.Subs = make([]*NbrSub, n)
	}
	// Scratch for BFS ball collection.
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	var ball []graph.NodeID
	// Profiles are carved off one arena sized for radius 1 (a ball holds
	// the center plus at most its adjacency), so the common case allocates
	// once; a larger radius opens further blocks as needed.
	var arena []int32
	for v := 0; v < n; v++ {
		ball = collectBall(g, graph.NodeID(v), radius, seen, v, ball[:0])
		if cap(arena)-len(arena) < len(ball) {
			arena = make([]int32, 0, max(len(ball), n+2*g.NumEdges()))
		}
		k := len(arena) + len(ball)
		prof := arena[len(arena):k:k]
		arena = arena[:k]
		for i, w := range ball {
			prof[i] = labels[w]
		}
		slices.Sort(prof)
		nb.Profiles[v] = prof
		if withSubgraphs {
			nb.Subs[v] = buildSub(g, ball, labels)
		}
	}
	return nb
}

// collectBall returns the nodes within radius hops of center (center first),
// using seen (stamped with epoch) as the visited set.
func collectBall(g *graph.Graph, center graph.NodeID, radius int, seen []int, epoch int, ball []graph.NodeID) []graph.NodeID {
	ball = append(ball, center)
	seen[center] = epoch
	frontier := 0
	for d := 0; d < radius; d++ {
		end := len(ball)
		for ; frontier < end; frontier++ {
			v := ball[frontier]
			for _, h := range g.Adj(v) {
				if seen[h.To] != epoch {
					seen[h.To] = epoch
					ball = append(ball, h.To)
				}
			}
			if g.Directed {
				for _, h := range g.InAdj(v) {
					if seen[h.To] != epoch {
						seen[h.To] = epoch
						ball = append(ball, h.To)
					}
				}
			}
		}
	}
	return ball
}

// buildSub materializes the neighborhood subgraph over the given ball.
func buildSub(g *graph.Graph, ball []graph.NodeID, labels []int32) *NbrSub {
	k := len(ball)
	s := &NbrSub{
		Members: append([]graph.NodeID(nil), ball...),
		Labels:  make([]int32, k),
		stride:  (k + 63) / 64,
	}
	s.adj = make([]uint64, k*s.stride)
	pos := make(map[graph.NodeID]int, k)
	for i, v := range ball {
		s.Labels[i] = labels[v]
		pos[v] = i
	}
	for i, v := range ball {
		for _, h := range g.Adj(v) {
			if j, ok := pos[h.To]; ok {
				s.setAdj(i, j)
			}
		}
	}
	return s
}

// ProfileContains reports whether small is a sub-multiset of big; both must
// be sorted. This is the §4.2 profile pruning condition ("whether a profile
// is a subsequence of the other").
func ProfileContains(big, small []int32) bool {
	if len(small) > len(big) {
		return false
	}
	i := 0
	for _, s := range small {
		for i < len(big) && big[i] < s {
			i++
		}
		if i >= len(big) || big[i] != s {
			return false
		}
		i++
	}
	return true
}

// SubIsomorphic reports whether p (a pattern node's neighborhood subgraph)
// is sub-isomorphic to d (a data node's) with the centers pinned to each
// other — the exact local pruning test of §4.2. Exponential in the worst
// case but neighborhoods are small; the profile test should be tried first.
func SubIsomorphic(p, d *NbrSub) bool {
	if p.Size() > d.Size() || p.Labels[0] != d.Labels[0] {
		return false
	}
	// assigned[i] = member of d matched to member i of p; centers pinned.
	assigned := make([]int, p.Size())
	used := make([]bool, d.Size())
	assigned[0] = 0
	used[0] = true
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.Size() {
			return true
		}
		for j := 0; j < d.Size(); j++ {
			if used[j] || d.Labels[j] != p.Labels[i] {
				continue
			}
			ok := true
			for k := 0; k < i; k++ {
				if p.Adjacent(i, k) && !d.Adjacent(j, assigned[k]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assigned[i] = j
			used[j] = true
			if rec(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return rec(1)
}
