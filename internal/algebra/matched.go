// Package algebra implements the bulk graph algebra of GraphQL (§3.3):
// selection generalized to graph pattern matching, Cartesian product,
// valued and structural join, composition via graph templates, and the set
// operators. Every operator consumes and produces collections of graphs.
// Each bulk operator exists only in its ...Context form, which takes a
// context and a worker count (1 is the serial path). Projection and renaming
// are derived from composition (§3.3) and so are written as a return
// template, not as operators of their own.
package algebra

import (
	"fmt"

	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

// MatchedGraph is the triple ⟨Φ, P, G⟩ of Definition 4.3: a binding of
// pattern P to graph G via mapping Φ. It has all the characteristics of a
// graph (a collection of matched graphs is a collection of graphs), with
// the binding available for attribute access and composition.
type MatchedGraph struct {
	P *pattern.Pattern
	G *graph.Graph
	M match.Mapping
}

// NodeFor returns the data node bound to the named pattern node.
func (m *MatchedGraph) NodeFor(varName string) (*graph.Node, error) {
	u, ok := m.P.Motif.NodeByName(varName)
	if !ok {
		return nil, fmt.Errorf("algebra: pattern %s has no node %s", m.P.Name, varName)
	}
	return m.G.Node(m.M.Nodes[u]), nil
}

// EdgeFor returns the data edge witnessing the named pattern edge.
func (m *MatchedGraph) EdgeFor(varName string) (*graph.Edge, error) {
	e, ok := m.P.Motif.EdgeByName(varName)
	if !ok {
		return nil, fmt.Errorf("algebra: pattern %s has no edge %s", m.P.Name, varName)
	}
	return m.G.Edge(m.M.Edges[e]), nil
}

// Resolve implements expr.Env over the binding: v1.attr reads the mate of
// motif node v1, e1.attr the witness of motif edge e1, and a bare name (or
// P.name) the matched graph's own attributes.
func (m *MatchedGraph) Resolve(parts []string) (graph.Value, error) {
	if len(parts) >= 2 && m.P.Name != "" && parts[0] == m.P.Name {
		parts = parts[1:]
	}
	if len(parts) == 1 {
		return m.G.Attrs.GetOr(parts[0]), nil
	}
	if len(parts) == 2 {
		if u, ok := m.P.Motif.NodeByName(parts[0]); ok {
			return m.G.Node(m.M.Nodes[u]).Attrs.GetOr(parts[1]), nil
		}
		if e, ok := m.P.Motif.EdgeByName(parts[0]); ok {
			return m.G.Edge(m.M.Edges[e]).Attrs.GetOr(parts[1]), nil
		}
	}
	return graph.Null, fmt.Errorf("algebra: cannot resolve %v in matched graph", parts)
}

// InducedGraph materializes the matched subgraph as a standalone graph:
// the bound data nodes (named after the pattern variables) and the
// witnessing edges. This is the "matched graph viewed as a graph".
func (m *MatchedGraph) InducedGraph() *graph.Graph {
	out := graph.New(m.P.Name)
	out.Directed = m.G.Directed
	out.Attrs = m.G.Attrs.Clone()
	for _, n := range m.P.Motif.Nodes() {
		out.AddNode(n.Name, m.G.Node(m.M.Nodes[n.ID]).Attrs.Clone())
	}
	for _, e := range m.P.Motif.Edges() {
		de := m.G.Edge(m.M.Edges[e.ID])
		out.AddEdge(e.Name, e.From, e.To, de.Attrs.Clone())
	}
	return out
}

// Matched is a collection of matched graphs — the output type of selection
// and the input type of composition.
type Matched []*MatchedGraph

// Graphs lowers the matched collection to plain graphs via InducedGraph.
func (ms Matched) Graphs() graph.Collection {
	out := make(graph.Collection, len(ms))
	for i, m := range ms {
		out[i] = m.InducedGraph()
	}
	return out
}
