// RDF runs the introduction's Semantic-Web example: "find all instances
// from an RDF graph where two departments of a company share the same
// shipping company", with the constraint that the departments share the
// same company attribute and the connecting edges are labelled "shipping".
// The result is reported as a single graph with departments as nodes and
// edges between departments that share a shipper — built by composing every
// match into an accumulator with unification.
//
// Run with:
//
//	go run ./examples/rdf
package main

import (
	"context"
	"fmt"
	"log"

	gqldb "gqldb"
)

func main() {
	g := buildRDF()
	fmt.Printf("RDF graph: %d resources, %d triples\n", g.NumNodes(), g.NumEdges())

	// The query pattern: two department nodes of the same company, each
	// with a "shipping" edge to one shared shipper node.
	p := gqldb.NewPattern("P")
	d1 := p.AddNode("d1", gqldb.NewTuple("dept"), nil)
	d2 := p.AddNode("d2", gqldb.NewTuple("dept"), nil)
	s := p.AddNode("s", gqldb.NewTuple("shipper"), nil)
	shipping := gqldb.TupleOf("", "rel", "shipping")
	p.AddEdge("e1", d1, s, shipping, nil)
	p.AddEdge("e2", d2, s, shipping, nil)
	sameCompany, err := gqldb.ParseExpr(`d1.company = d2.company`)
	if err != nil {
		log.Fatal(err)
	}
	p.Where(sameCompany)

	sel, err := gqldb.SelectGraphs(context.Background(), p, gqldb.Collection{g},
		gqldb.SelectOptions{Match: gqldb.Options{Exhaustive: true}, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matches: %d (each unordered pair appears twice)\n", len(sel))

	// Compose the report graph: departments as nodes (unified by name),
	// one edge per shared shipper.
	nameA, _ := gqldb.ParseExpr("P.d1.name = C.a.name")
	nameB, _ := gqldb.ParseExpr("P.d2.name = C.b.name")
	via, _ := gqldb.ParseExpr("P.s.name")
	tmpl := &gqldb.Template{
		Name: "C",
		Members: []gqldb.TMember{
			gqldb.TGraph{Var: "C"},
			gqldb.TNode{Ref: []string{"P", "d1"}},
			gqldb.TNode{Ref: []string{"P", "d2"}},
			gqldb.TEdge{From: []string{"P", "d1"}, To: []string{"P", "d2"},
				Attrs: []gqldb.AttrTemplate{{Name: "via", E: via}}},
			gqldb.TUnify{A: []string{"P", "d1"}, B: []string{"C", "a"}, Where: nameA},
			gqldb.TUnify{A: []string{"P", "d2"}, B: []string{"C", "b"}, Where: nameB},
		},
	}
	acc := gqldb.NewGraph("C")
	for _, m := range sel {
		// Keep one direction of each pair.
		a, _ := m.NodeFor("d1")
		b, _ := m.NodeFor("d2")
		if a.ID > b.ID {
			continue
		}
		out, err := tmpl.Instantiate(map[string]gqldb.Operand{
			"P": gqldb.MatchedOperand(m),
			"C": gqldb.GraphOperand(acc),
		})
		if err != nil {
			log.Fatal(err)
		}
		acc = out
	}
	fmt.Printf("\nshared-shipper report graph:\n%s\n", acc)
}

// buildRDF assembles a small company/department/shipper graph.
func buildRDF() *gqldb.Graph {
	g := gqldb.NewGraph("rdf")
	dept := func(name, company string) gqldb.NodeID {
		return g.AddNode(name, gqldb.TupleOf("dept", "name", name, "company", company))
	}
	shipper := func(name string) gqldb.NodeID {
		return g.AddNode(name, gqldb.TupleOf("shipper", "name", name))
	}
	ship := gqldb.TupleOf("", "rel", "shipping")
	bill := gqldb.TupleOf("", "rel", "billing")

	sales := dept("acme_sales", "Acme")
	rnd := dept("acme_rnd", "Acme")
	hr := dept("acme_hr", "Acme")
	gxSales := dept("globex_sales", "Globex")
	gxOps := dept("globex_ops", "Globex")

	fast := shipper("FastShip")
	slow := shipper("SlowFreight")

	g.AddEdge("", sales, fast, ship)
	g.AddEdge("", rnd, fast, ship)
	g.AddEdge("", hr, slow, ship)
	g.AddEdge("", gxSales, slow, ship)
	g.AddEdge("", gxOps, slow, ship)
	g.AddEdge("", gxOps, fast, bill) // billing only: must not match
	return g
}
