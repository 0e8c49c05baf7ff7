package gqldb_test

import (
	"context"
	"fmt"
	"log"

	gqldb "gqldb"
)

// ExampleMatch finds a labelled triangle in a small graph — the Figure 4.1
// query.
func ExampleMatch() {
	g := gqldb.NewGraph("G")
	a := g.AddNode("a1", gqldb.TupleOf("", "label", "A"))
	b := g.AddNode("b1", gqldb.TupleOf("", "label", "B"))
	c := g.AddNode("c1", gqldb.TupleOf("", "label", "C"))
	g.AddEdge("", a, b, nil)
	g.AddEdge("", b, c, nil)
	g.AddEdge("", c, a, nil)

	p := gqldb.NewPattern("P")
	x := p.LabelNode("x", "A")
	y := p.LabelNode("y", "B")
	z := p.LabelNode("z", "C")
	p.AddEdge("", x, y, nil, nil)
	p.AddEdge("", y, z, nil, nil)
	p.AddEdge("", z, x, nil, nil)

	ms, _, err := gqldb.Match(p, g, nil, gqldb.Options{Exhaustive: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:", len(ms))
	for _, v := range ms[0].Nodes {
		fmt.Println(g.Node(v).Name)
	}
	// Output:
	// matches: 1
	// a1
	// b1
	// c1
}

// ExampleQuery evaluates a FLWR query with a return clause: one result graph
// per matched author.
func ExampleQuery() {
	paper, err := gqldb.ParseGraph(`graph p1 <inproceedings booktitle="SIGMOD"> {
		node v1 <author name="He">;
		node v2 <author name="Singh">;
	};`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := gqldb.Query(context.Background(), `
		for graph Q { node v <author>; } exhaustive in doc("papers")
		return graph R { node u <label=Q.v.name>; };`,
		gqldb.QueryOptions{Docs: gqldb.Store{"papers": gqldb.Collection{paper}}})
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range res.Out {
		fmt.Println(g.Node(0).Attrs.GetOr("label").AsString())
	}
	// Output:
	// He
	// Singh
}

// ExampleBuildIndex shows the optimized §4 pipeline over an indexed graph.
func ExampleBuildIndex() {
	g := gqldb.NewGraph("G")
	a := g.AddNode("", gqldb.TupleOf("", "label", "A"))
	b := g.AddNode("", gqldb.TupleOf("", "label", "B"))
	g.AddEdge("", a, b, nil)

	ix := gqldb.BuildIndex(g, 1, true)
	p := gqldb.NewPattern("P")
	x := p.LabelNode("x", "A")
	y := p.LabelNode("y", "B")
	p.AddEdge("", x, y, nil, nil)

	ok, err := gqldb.MatchOne(p, g, ix, gqldb.Optimized())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ok)
	// Output:
	// true
}
