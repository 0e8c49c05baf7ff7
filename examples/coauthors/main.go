// Coauthors runs the Figure 4.12 query end to end: generate a DBLP-like
// collection of paper graphs, then build the co-authorship graph with a
// FLWR let-accumulator — each matched author pair is inserted with an edge,
// unifying authors by name so each appears once (Figure 4.13 semantics).
//
// Run with:
//
//	go run ./examples/coauthors
package main

import (
	"context"
	"fmt"
	"log"

	gqldb "gqldb"
	"gqldb/internal/gen"
)

const query = `
graph P {
	node v1 <author>;
	node v2 <author>;
} where P.booktitle = "SIGMOD";

C := graph {};

for P exhaustive in doc("DBLP") let C := graph {
	graph C;
	node P.v1, P.v2;
	edge e1 (P.v1, P.v2);
	unify P.v1, C.v1 where P.v1.name = C.v1.name;
	unify P.v2, C.v2 where P.v2.name = C.v2.name;
};
`

func main() {
	papers := gen.DBLP(300, 80, []string{"SIGMOD", "VLDB", "ICDE"}, 42)
	fmt.Printf("generated %d papers\n", len(papers))

	res, err := gqldb.Query(context.Background(), query, gqldb.QueryOptions{Docs: gqldb.Store{"DBLP": papers}})
	if err != nil {
		log.Fatal(err)
	}
	c := res.Vars["C"]
	fmt.Printf("co-authorship graph: %d authors, %d co-author edges\n",
		c.NumNodes(), c.NumEdges())

	// The most collaborative authors.
	best, bestDeg := "", -1
	for _, n := range c.Nodes() {
		if d := c.Degree(n.ID); d > bestDeg {
			bestDeg = d
			best = n.Attrs.GetOr("name").AsString()
		}
	}
	fmt.Printf("most collaborative SIGMOD author: %s (%d co-authors)\n", best, bestDeg)

	// Sanity: every author node must be unique by name (that is what the
	// unify clauses guarantee).
	seen := map[string]bool{}
	for _, n := range c.Nodes() {
		name := n.Attrs.GetOr("name").AsString()
		if seen[name] {
			log.Fatalf("duplicate author %s — unification failed", name)
		}
		seen[name] = true
	}
	fmt.Println("all authors unique: unification OK")
}
