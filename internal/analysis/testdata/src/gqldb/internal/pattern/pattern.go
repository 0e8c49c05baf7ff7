// Package pattern is analyzer corpus: the compiled pattern's shared
// read-only accessors, registered with aliasguard.
package pattern

// Half mimics one motif half-edge.
type Half struct {
	Edge, To int
	Out      bool
}

// Pattern mimics a compiled pattern whose adjacency Compile builds once.
type Pattern struct {
	halves [][]Half
}

// Halves returns the shared half-edge table.
func (p *Pattern) Halves() [][]Half { return p.halves }
