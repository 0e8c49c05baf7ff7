// Quickstart: build an attributed graph, declare a graph pattern in the
// GraphQL syntax, match it, and compose a new graph from the matches — the
// running example of §3 (Figures 4.7, 4.8, 4.9 and 4.11).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	gqldb "gqldb"
)

func main() {
	// A small "paper" graph in the Figure 4.7 style.
	g := gqldb.NewGraph("paper1")
	g.Attrs = gqldb.TupleOf("inproceedings", "booktitle", "SIGMOD", "year", 2008)
	g.AddNode("v1", gqldb.TupleOf("", "title", "Graphs-at-a-time", "year", 2008))
	g.AddNode("v2", gqldb.TupleOf("author", "name", "He"))
	g.AddNode("v3", gqldb.TupleOf("author", "name", "Singh"))

	// The Figure 4.8 pattern, written in the query-language syntax: a node
	// named "He" and a node with year > 2000.
	p, err := gqldb.ParsePattern(`
		graph P {
			node v1 where name = "He";
			node v2 where year > 2000;
		};`)
	if err != nil {
		log.Fatal(err)
	}

	// Match: Definition 4.2 (subgraph isomorphism + predicate).
	mappings, _, err := gqldb.Match(p, g, nil, gqldb.Options{Exhaustive: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern matched %d time(s)\n", len(mappings))
	for _, m := range mappings {
		for u, v := range m.Nodes {
			fmt.Printf("  Φ(P.%s) -> G.%s\n",
				p.Motif.Node(gqldb.NodeID(u)).Name, g.Node(v).Name)
		}
	}

	// Compose a new graph from each match — the Figure 4.11 template:
	// node a labelled by the matched author name, node b by the paper
	// title, with an edge between them.
	sel, err := gqldb.SelectGraphs(context.Background(), p, gqldb.Collection{g},
		gqldb.SelectOptions{Match: gqldb.Options{Exhaustive: true}, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	nameE, _ := gqldb.ParseExpr("P.v1.name")
	titleE, _ := gqldb.ParseExpr("P.v2.title")
	t := &gqldb.Template{Name: "T"}
	t.Members = append(t.Members,
		gqldb.TNode{Name: "a", Attrs: []gqldb.AttrTemplate{{Name: "label", E: nameE}}},
		gqldb.TNode{Name: "b", Attrs: []gqldb.AttrTemplate{{Name: "label", E: titleE}}},
		gqldb.TEdge{Name: "e1", From: []string{"a"}, To: []string{"b"}},
	)
	for _, m := range sel {
		out, err := t.Instantiate(map[string]gqldb.Operand{"P": gqldb.MatchedOperand(m)})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("composed graph:\n%s\n", out)
	}
}
