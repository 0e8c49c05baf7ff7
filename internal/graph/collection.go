package graph

// Collection is an ordered collection of graphs — the operand type of every
// graph-algebra operator. Unlike a relation's tuples, member graphs need not
// share structure or attributes (§3.1).
type Collection []*Graph

// NewCollection builds a collection from the given graphs.
func NewCollection(gs ...*Graph) Collection { return Collection(gs) }

// Len returns the number of graphs.
func (c Collection) Len() int { return len(c) }

// Append returns the collection extended with g.
func (c Collection) Append(g *Graph) Collection { return append(c, g) }

// Clone deep-copies every member graph.
func (c Collection) Clone() Collection {
	out := make(Collection, len(c))
	for i, g := range c {
		out[i] = g.Clone()
	}
	return out
}
