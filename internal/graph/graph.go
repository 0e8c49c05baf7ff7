package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within one graph; IDs are dense, starting at 0.
type NodeID int32

// EdgeID identifies an edge within one graph; IDs are dense, starting at 0.
type EdgeID int32

// NoNode is the sentinel for "no node".
const NoNode NodeID = -1

// NoEdge is the sentinel for "no edge"; AddEdge returns it when the
// endpoints are out of range and the edge cannot be added.
const NoEdge EdgeID = -1

// Node is a vertex with an optional variable name and an attribute tuple.
type Node struct {
	ID    NodeID
	Name  string
	Attrs *Tuple
}

// Edge connects two nodes. For undirected graphs From/To record declaration
// order but carry no orientation semantics.
type Edge struct {
	ID    EdgeID
	Name  string
	From  NodeID
	To    NodeID
	Attrs *Tuple
}

// Half is one adjacency entry: the incident edge and the node at its far end.
type Half struct {
	Edge EdgeID
	To   NodeID
}

// Graph is an attributed multigraph. Nodes and edges are stored densely and
// addressed by ID; adjacency lists support the matching kernels. The zero
// value is not usable; call New.
type Graph struct {
	Name     string
	Directed bool
	Attrs    *Tuple

	nodes []Node
	edges []Edge
	// adj[v] lists every edge incident to v together with the opposite
	// endpoint. For directed graphs adj holds outgoing edges and radj
	// incoming ones; for undirected graphs adj holds both directions and
	// radj is nil.
	adj  [][]Half
	radj [][]Half

	nodeByName map[string]NodeID
	edgeByName map[string]EdgeID
	// pairs maps an ordered endpoint pair to the edges between them. For
	// undirected graphs the pair is stored with min endpoint first.
	pairs map[[2]NodeID][]EdgeID

	// err records the first construction error (duplicate name, bad edge
	// endpoint, malformed attribute tuple). Mutators keep the graph usable
	// after an error — names are uniquified, bad edges skipped — so bulk
	// loaders can accumulate and report via Err instead of aborting the
	// process. Use Builder when every error must be reported.
	err error
}

// New returns an empty undirected graph with the given name.
func New(name string) *Graph {
	return &Graph{
		Name:       name,
		nodeByName: make(map[string]NodeID),
		edgeByName: make(map[string]EdgeID),
		pairs:      make(map[[2]NodeID][]EdgeID),
	}
}

// NewDirected returns an empty directed graph with the given name.
func NewDirected(name string) *Graph {
	g := New(name)
	g.Directed = true
	return g
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID. The pointer stays valid until the
// next AddNode.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Edge returns the edge with the given ID. The pointer stays valid until the
// next AddEdge.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// NodeByName looks a node up by its variable name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.nodeByName[name]
	return id, ok
}

// EdgeByName looks an edge up by its variable name.
func (g *Graph) EdgeByName(name string) (EdgeID, bool) {
	id, ok := g.edgeByName[name]
	return id, ok
}

// Err returns the first construction error recorded by AddNode, AddEdge,
// RenameNode or an absorbed attribute tuple, or nil. Bulk loaders
// (ReadBinary, ReadTSV, ParseGraph) check it before handing a graph out;
// programmatic construction may ignore it (a recorded error there is a
// call-site bug that tests catch via Err assertions).
func (g *Graph) Err() error { return g.err }

// setErr records the first construction error.
func (g *Graph) setErr(err error) {
	if g.err == nil {
		g.err = err
	}
}

// absorbTupleErr folds a malformed attribute tuple (e.g. a TupleOf call
// with an unsupported value type) into the graph's construction error.
func (g *Graph) absorbTupleErr(where string, attrs *Tuple) {
	if err := attrs.Err(); err != nil {
		g.setErr(fmt.Errorf("graph: %s in graph %q: %w", where, g.Name, err))
	}
}

// uniquify returns name, suffixed if already taken, so construction can
// continue after a duplicate-name error with dense IDs and unique names.
func (g *Graph) uniquify(name string, taken map[string]NodeID, takenE map[string]EdgeID) string {
	for i := 2; ; i++ {
		c := fmt.Sprintf("%s_dup%d", name, i)
		_, n := taken[c]
		_, e := takenE[c]
		if !n && !e {
			return c
		}
	}
}

// AddNode appends a node. An empty name is auto-generated. A duplicate name
// records a construction error on the graph (see Err) and the node is added
// under a uniquified name, keeping IDs dense (names are variables and must
// be unique within a graph).
func (g *Graph) AddNode(name string, attrs *Tuple) NodeID {
	id := NodeID(len(g.nodes))
	if name == "" {
		name = fmt.Sprintf("_n%d", id)
	}
	if _, dup := g.nodeByName[name]; dup {
		g.setErr(fmt.Errorf("graph: duplicate node name %q in graph %q", name, g.Name))
		name = g.uniquify(name, g.nodeByName, nil)
	}
	g.absorbTupleErr("node "+name, attrs)
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Attrs: attrs})
	g.adj = append(g.adj, nil)
	if g.Directed {
		g.radj = append(g.radj, nil)
	}
	g.nodeByName[name] = id
	return id
}

// AddEdge appends an edge between existing nodes. An empty name is
// auto-generated. Self-loops and parallel edges are permitted (multigraph).
// Out-of-range endpoints record a construction error (see Err) and return
// NoEdge; a duplicate name records an error and uniquifies.
func (g *Graph) AddEdge(name string, from, to NodeID, attrs *Tuple) EdgeID {
	if int(from) >= len(g.nodes) || int(to) >= len(g.nodes) || from < 0 || to < 0 {
		g.setErr(fmt.Errorf("graph: AddEdge(%d,%d) out of range in graph %q", from, to, g.Name))
		return NoEdge
	}
	id := EdgeID(len(g.edges))
	if name == "" {
		name = fmt.Sprintf("_e%d", id)
	}
	if _, dup := g.edgeByName[name]; dup {
		g.setErr(fmt.Errorf("graph: duplicate edge name %q in graph %q", name, g.Name))
		name = g.uniquify(name, nil, g.edgeByName)
	}
	g.absorbTupleErr("edge "+name, attrs)
	g.edges = append(g.edges, Edge{ID: id, Name: name, From: from, To: to, Attrs: attrs})
	g.edgeByName[name] = id
	g.adj[from] = append(g.adj[from], Half{Edge: id, To: to})
	if g.Directed {
		g.radj[to] = append(g.radj[to], Half{Edge: id, To: from})
	} else if from != to {
		g.adj[to] = append(g.adj[to], Half{Edge: id, To: from})
	}
	g.pairs[g.pairKey(from, to)] = append(g.pairs[g.pairKey(from, to)], id)
	return id
}

func (g *Graph) pairKey(u, v NodeID) [2]NodeID {
	if !g.Directed && u > v {
		u, v = v, u
	}
	return [2]NodeID{u, v}
}

// Adj returns the adjacency list of v: outgoing edges for directed graphs,
// all incident edges for undirected ones. The slice must not be modified.
func (g *Graph) Adj(v NodeID) []Half { return g.adj[v] }

// InAdj returns the incoming adjacency of v in a directed graph; for
// undirected graphs it equals Adj.
func (g *Graph) InAdj(v NodeID) []Half {
	if g.Directed {
		return g.radj[v]
	}
	return g.adj[v]
}

// Degree returns the size of v's adjacency list (out-degree when directed).
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// EdgesBetween returns the IDs of edges from u to v (any orientation for
// undirected graphs). The slice must not be modified.
func (g *Graph) EdgesBetween(u, v NodeID) []EdgeID {
	return g.pairs[g.pairKey(u, v)]
}

// HasEdgeBetween reports whether at least one edge joins u to v.
func (g *Graph) HasEdgeBetween(u, v NodeID) bool {
	return len(g.pairs[g.pairKey(u, v)]) > 0
}

// Label returns the node's "label" attribute as a string; evaluation graphs
// (PPI, synthetic) carry a single string label per node.
func (g *Graph) Label(v NodeID) string {
	return g.nodes[v].Attrs.GetOr("label").AsString()
}

// Clone returns a deep copy of the graph, including attribute tuples.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:       g.Name,
		Directed:   g.Directed,
		Attrs:      g.Attrs.Clone(),
		err:        g.err,
		nodes:      make([]Node, len(g.nodes)),
		edges:      make([]Edge, len(g.edges)),
		adj:        make([][]Half, len(g.adj)),
		nodeByName: make(map[string]NodeID, len(g.nodeByName)),
		edgeByName: make(map[string]EdgeID, len(g.edgeByName)),
		pairs:      make(map[[2]NodeID][]EdgeID, len(g.pairs)),
	}
	for i, n := range g.nodes {
		c.nodes[i] = Node{ID: n.ID, Name: n.Name, Attrs: n.Attrs.Clone()}
		c.nodeByName[n.Name] = n.ID
	}
	for i, e := range g.edges {
		c.edges[i] = Edge{ID: e.ID, Name: e.Name, From: e.From, To: e.To, Attrs: e.Attrs.Clone()}
		c.edgeByName[e.Name] = e.ID
	}
	for i, a := range g.adj {
		c.adj[i] = append([]Half(nil), a...)
	}
	if g.Directed {
		c.radj = make([][]Half, len(g.radj))
		for i, a := range g.radj {
			c.radj[i] = append([]Half(nil), a...)
		}
	}
	for k, v := range g.pairs {
		c.pairs[k] = append([]EdgeID(nil), v...)
	}
	return c
}

// Nodes returns the node slice for read-only iteration.
func (g *Graph) Nodes() []Node { return g.nodes }

// Edges returns the edge slice for read-only iteration.
func (g *Graph) Edges() []Edge { return g.edges }

// RenameNode changes a node's variable name, keeping uniqueness. An
// out-of-range ID or a name already taken by another node records a
// construction error (see Err) and leaves the graph unchanged.
func (g *Graph) RenameNode(id NodeID, name string) {
	if id < 0 || int(id) >= len(g.nodes) {
		g.setErr(fmt.Errorf("graph: RenameNode(%d) out of range in graph %q", id, g.Name))
		return
	}
	if g.nodes[id].Name == name {
		return
	}
	if _, dup := g.nodeByName[name]; dup {
		g.setErr(fmt.Errorf("graph: duplicate node name %q in graph %q", name, g.Name))
		return
	}
	delete(g.nodeByName, g.nodes[id].Name)
	g.nodes[id].Name = name
	g.nodeByName[name] = id
}

// String renders the graph in the language's text syntax (Figure 4.3/4.7
// style); the output round-trips through the parser.
func (g *Graph) String() string {
	var b strings.Builder
	b.WriteString("graph")
	if g.Name != "" {
		b.WriteByte(' ')
		b.WriteString(g.Name)
	}
	if s := g.Attrs.String(); s != "" {
		b.WriteByte(' ')
		b.WriteString(s)
	}
	b.WriteString(" {\n")
	for _, n := range g.nodes {
		b.WriteString("  node ")
		b.WriteString(n.Name)
		if s := n.Attrs.String(); s != "" {
			b.WriteByte(' ')
			b.WriteString(s)
		}
		b.WriteString(";\n")
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  edge %s (%s, %s)", e.Name, g.nodes[e.From].Name, g.nodes[e.To].Name)
		if s := e.Attrs.String(); s != "" {
			b.WriteByte(' ')
			b.WriteString(s)
		}
		b.WriteString(";\n")
	}
	b.WriteString("}")
	return b.String()
}

// Signature returns an order-insensitive structural+attribute fingerprint
// used by tests to compare graphs up to node/edge declaration order (not up
// to isomorphism). Two graphs with equal signatures have the same named
// nodes, edges and attributes.
func (g *Graph) Signature() string {
	lines := make([]string, 0, len(g.nodes)+len(g.edges)+1)
	for _, n := range g.nodes {
		lines = append(lines, "n "+n.Name+" "+n.Attrs.String())
	}
	for _, e := range g.edges {
		u, v := g.nodes[e.From].Name, g.nodes[e.To].Name
		if !g.Directed && u > v {
			u, v = v, u
		}
		lines = append(lines, "e "+u+"-"+v+" "+e.Attrs.String())
	}
	sort.Strings(lines)
	dir := "u"
	if g.Directed {
		dir = "d"
	}
	return dir + " " + g.Attrs.String() + "\n" + strings.Join(lines, "\n")
}
