// Chem searches a large collection of small graphs — the paper's first
// graph-database category (§4: "a large collection of small graphs, e.g.,
// chemical compounds") and the introduction's first motivating query:
// "find all heterocyclic chemical compounds that contain a given aromatic
// ring and a side chain", with atoms as nodes and bonds as edges. The
// selection runs both sequentially and in parallel across the collection.
//
// Run with:
//
//	go run ./examples/chem
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	gqldb "gqldb"
)

func main() {
	compounds := generateCompounds(4000, 99)
	fmt.Printf("compound library: %d molecules\n", len(compounds))

	// Query: a six-membered ring with a nitrogen in it (heterocycle) and
	// an oxygen side chain attached to one ring atom.
	q := gqldb.NewPattern("Q")
	ring := make([]gqldb.NodeID, 6)
	ring[0] = q.LabelNode("n1", "N") // the hetero atom
	for i := 1; i < 6; i++ {
		ring[i] = q.LabelNode(fmt.Sprintf("c%d", i), "C")
	}
	for i := 0; i < 6; i++ {
		q.AddEdge("", ring[i], ring[(i+1)%6], nil, nil)
	}
	side := q.LabelNode("o1", "O")
	q.AddEdge("", ring[3], side, nil, nil)

	start := time.Now()
	seq, err := gqldb.SelectGraphs(context.Background(), q, compounds, gqldb.SelectOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	seqT := time.Since(start)

	start = time.Now()
	par, err := gqldb.SelectGraphs(context.Background(), q, compounds, gqldb.SelectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	parT := time.Since(start)

	if len(seq) != len(par) {
		log.Fatalf("parallel selection changed the answer: %d vs %d", len(par), len(seq))
	}
	fmt.Printf("heterocycles with O side chain: %d of %d compounds\n", len(seq), len(compounds))
	fmt.Printf("sequential: %v   parallel: %v\n", seqT, parT)
	if len(seq) > 0 {
		fmt.Printf("\nfirst hit (%s):\n%s\n", seq[0].G.Name, seq[0].G)
	}
}

// generateCompounds builds random small molecules: a backbone ring or
// chain of C/N atoms with O/C side chains.
func generateCompounds(n int, seed int64) gqldb.Collection {
	rng := rand.New(rand.NewSource(seed))
	atom := func(rng *rand.Rand) string {
		switch r := rng.Float64(); {
		case r < 0.70:
			return "C"
		case r < 0.85:
			return "N"
		case r < 0.95:
			return "O"
		default:
			return "S"
		}
	}
	out := make(gqldb.Collection, 0, n)
	for i := 0; i < n; i++ {
		g := gqldb.NewGraph(fmt.Sprintf("mol%05d", i))
		size := 5 + rng.Intn(4) // backbone of 5..8 atoms
		ids := make([]gqldb.NodeID, size)
		for j := 0; j < size; j++ {
			ids[j] = g.AddNode("", gqldb.TupleOf("atom", "label", atom(rng)))
		}
		for j := 1; j < size; j++ {
			g.AddEdge("", ids[j-1], ids[j], gqldb.TupleOf("bond", "order", 1))
		}
		if rng.Float64() < 0.6 { // close the backbone into a ring
			g.AddEdge("", ids[size-1], ids[0], gqldb.TupleOf("bond", "order", 1))
		}
		// Side chains.
		for s := rng.Intn(3); s > 0; s-- {
			at := g.AddNode("", gqldb.TupleOf("atom", "label", atom(rng)))
			g.AddEdge("", ids[rng.Intn(size)], at, gqldb.TupleOf("bond", "order", 1))
		}
		out = append(out, g)
	}
	return out
}
