package algebra

import (
	"fmt"

	"gqldb/internal/graph"
)

// mergeAttrs combines two graph tuples; the left side wins on conflicts.
func mergeAttrs(a, b *graph.Tuple) *graph.Tuple {
	if a.Len() == 0 && (a == nil || a.Tag == "") {
		return b.Clone()
	}
	out := a.Clone()
	for i := 0; i < b.Len(); i++ {
		at := b.At(i)
		if _, has := out.Get(at.Name); !has {
			out.Set(at.Name, at.Val)
		}
	}
	return out
}

// graphEnv resolves names against one plain graph: v.attr for a node (or
// edge) variable, bare attr for the graph tuple.
type graphEnv struct{ g *graph.Graph }

// Resolve implements expr.Env.
func (e graphEnv) Resolve(parts []string) (graph.Value, error) {
	switch len(parts) {
	case 1:
		return e.g.Attrs.GetOr(parts[0]), nil
	case 2:
		if id, ok := e.g.NodeByName(parts[0]); ok {
			return e.g.Node(id).Attrs.GetOr(parts[1]), nil
		}
		if id, ok := e.g.EdgeByName(parts[0]); ok {
			return e.g.Edge(id).Attrs.GetOr(parts[1]), nil
		}
	}
	return graph.Null, fmt.Errorf("algebra: cannot resolve %v in graph %s", parts, e.g.Name)
}

// Union computes C ∪ D with set semantics up to graph signature.
func Union(c, d graph.Collection) graph.Collection {
	seen := make(map[string]bool)
	var out graph.Collection
	for _, g := range append(append(graph.Collection{}, c...), d...) {
		sig := g.Signature()
		if !seen[sig] {
			seen[sig] = true
			out = append(out, g)
		}
	}
	return out
}

// Difference computes C − D up to graph signature.
func Difference(c, d graph.Collection) graph.Collection {
	drop := make(map[string]bool, len(d))
	for _, g := range d {
		drop[g.Signature()] = true
	}
	seen := make(map[string]bool)
	var out graph.Collection
	for _, g := range c {
		sig := g.Signature()
		if !drop[sig] && !seen[sig] {
			seen[sig] = true
			out = append(out, g)
		}
	}
	return out
}

// Intersection computes C ∩ D up to graph signature, derived from
// difference: C ∩ D = C − (C − D).
func Intersection(c, d graph.Collection) graph.Collection {
	return Difference(c, Difference(c, d))
}
