// Package index implements the access-method support structures of §4.2 and
// §4.4: a B-tree label index over node attributes, radius-r neighborhood
// subgraphs and their light-weight profiles for local pruning of feasible
// mates, and node/edge label frequency statistics for the search-order cost
// model.
package index

import (
	"sort"

	"gqldb/internal/btree"
	"gqldb/internal/graph"
)

// Interner maps label strings to dense int32 IDs so profiles and frequency
// tables work on integers. A LabelIndex's interner is filled once, at build,
// and only read afterwards (Lookup, Name), so concurrent selections can share
// it; nothing may Intern into it after the build.
type Interner struct {
	ids   map[string]int32
	names []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// Intern returns the ID for label, allocating one if new.
func (in *Interner) Intern(label string) int32 {
	if id, ok := in.ids[label]; ok {
		return id
	}
	id := int32(len(in.names))
	in.ids[label] = id
	in.names = append(in.names, label)
	return id
}

// Lookup returns the ID for label without allocating; ok is false for labels
// never interned.
func (in *Interner) Lookup(label string) (int32, bool) {
	id, ok := in.ids[label]
	return id, ok
}

// Name returns the label string for an ID.
func (in *Interner) Name(id int32) string { return in.names[id] }

// Len returns the number of distinct labels.
func (in *Interner) Len() int { return len(in.names) }

// LabelIndex indexes the nodes of one graph by their "label" attribute using
// a B-tree, as §4.2 prescribes for selective node attributes; it also keeps
// the label/edge frequency statistics the §4.4 cost model needs.
type LabelIndex struct {
	In   *Interner
	tree btree.Tree[string, []graph.NodeID]
	// nodeLabel[v] is the interned label of node v.
	nodeLabel []int32
	// freq[l] counts nodes with label l.
	freq []int
	// edgeFreq counts edges by unordered label pair.
	edgeFreq map[[2]int32]int
	numNodes int
	numEdges int
}

// BuildLabelIndex scans g once and builds the index and statistics. Node
// IDs are grouped by interned label in that one pass (so every posting list
// is ascending), and each label's list goes into the B-tree with one insert.
func BuildLabelIndex(g *graph.Graph) *LabelIndex {
	n := g.NumNodes()
	ix := &LabelIndex{
		In:        NewInterner(),
		nodeLabel: make([]int32, n),
		edgeFreq:  make(map[[2]int32]int),
		numNodes:  n,
		numEdges:  g.NumEdges(),
	}
	for v := 0; v < n; v++ {
		id := ix.In.Intern(g.Label(graph.NodeID(v)))
		ix.nodeLabel[v] = id
		if int(id) == len(ix.freq) {
			ix.freq = append(ix.freq, 0)
		}
		ix.freq[id]++
	}
	// One backing array for every posting list, carved by label in ID
	// order: offsets are the running sums of the frequencies.
	all := make([]graph.NodeID, n)
	next := make([]int, len(ix.freq))
	off := 0
	for id, f := range ix.freq {
		next[id] = off
		off += f
	}
	for v, id := range ix.nodeLabel {
		all[next[id]] = graph.NodeID(v)
		next[id]++
	}
	lo := 0
	for id, f := range ix.freq {
		ix.tree.Set(ix.In.Name(int32(id)), all[lo:lo+f:lo+f])
		lo += f
	}
	for _, e := range g.Edges() {
		ix.edgeFreq[ix.pairKey(ix.nodeLabel[e.From], ix.nodeLabel[e.To])]++
	}
	return ix
}

// NodeLabels returns the interned label of every node, indexed by node ID —
// the label vector BuildNeighborhoods takes. The slice is shared and must
// not be modified.
func (ix *LabelIndex) NodeLabels() []int32 { return ix.nodeLabel }

func (ix *LabelIndex) pairKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// Lookup returns the nodes carrying the given label, in ID order. The slice
// is shared and must not be modified.
func (ix *LabelIndex) Lookup(label string) []graph.NodeID {
	v, _ := ix.tree.Get(label)
	return v
}

// Freq returns how many nodes carry the label.
func (ix *LabelIndex) Freq(label string) int {
	id, ok := ix.In.Lookup(label)
	if !ok {
		return 0
	}
	return ix.freq[id]
}

// EdgeFreq returns how many edges join a node labelled a to one labelled b.
func (ix *LabelIndex) EdgeFreq(a, b string) int {
	ia, ok1 := ix.In.Lookup(a)
	ib, ok2 := ix.In.Lookup(b)
	if !ok1 || !ok2 {
		return 0
	}
	return ix.edgeFreq[ix.pairKey(ia, ib)]
}

// NumNodes returns the indexed graph's node count.
func (ix *LabelIndex) NumNodes() int { return ix.numNodes }

// NumEdges returns the indexed graph's edge count.
func (ix *LabelIndex) NumEdges() int { return ix.numEdges }

// TopLabels returns the k most frequent labels, most frequent first; the
// clique workload of §5.1 draws labels from the top 40.
func (ix *LabelIndex) TopLabels(k int) []string {
	type lf struct {
		name string
		n    int
	}
	all := make([]lf, 0, ix.In.Len())
	for id, n := range ix.freq {
		all = append(all, lf{ix.In.Name(int32(id)), n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].name < all[j].name
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].name
	}
	return out
}
