package gqldb

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	g := NewGraph("G")
	a := g.AddNode("a", TupleOf("", "label", "A"))
	b := g.AddNode("b", TupleOf("", "label", "B"))
	c := g.AddNode("c", TupleOf("", "label", "C"))
	g.AddEdge("", a, b, nil)
	g.AddEdge("", b, c, nil)
	g.AddEdge("", c, a, nil)

	p := NewPattern("P")
	pa := p.LabelNode("x", "A")
	pb := p.LabelNode("y", "B")
	p.AddEdge("", pa, pb, nil, nil)

	ix := BuildIndex(g, 1, true)
	ms, _, err := Match(p, g, ix, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	ok, err := MatchOne(p, g, nil, Options{})
	if err != nil || !ok {
		t.Errorf("MatchOne = %v, %v", ok, err)
	}
}

func TestFacadeParseGraphAndPattern(t *testing.T) {
	g, err := ParseGraph(`graph G { node v1 <label="A">; node v2 <label="B">; edge e1 (v1, v2); };`)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("parsed graph shape %d/%d", g.NumNodes(), g.NumEdges())
	}
	p, err := ParsePattern(`graph P { node v1 where label="A"; };`)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := Match(p, g, nil, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("matches = %d", len(ms))
	}
	if _, err := ParseGraph(`graph A {}; graph B {};`); err == nil {
		t.Error("two statements should be rejected by ParseGraph")
	}
	if _, err := ParsePattern(`for P in doc("x") return graph {};`); err == nil {
		t.Error("non-declaration should be rejected by ParsePattern")
	}
}

func TestFacadeSelectAndRun(t *testing.T) {
	g1, _ := ParseGraph(`graph G1 <inproceedings booktitle="SIGMOD"> {
		node v1 <author name="A">; node v2 <author name="B">; };`)
	g2, _ := ParseGraph(`graph G2 <inproceedings booktitle="SIGMOD"> {
		node v1 <author name="C">; node v2 <author name="A">; };`)
	coll := Collection{g1, g2}

	p, err := ParsePattern(`graph P { node v1 <author>; node v2 <author>; };`)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := SelectGraphs(context.Background(), p, coll, SelectOptions{Match: Options{Exhaustive: true}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 { // two orders per paper
		t.Fatalf("selected = %d, want 4", len(ms))
	}

	res, err := Query(context.Background(), `
		graph P { node v1 <author>; node v2 <author>; };
		C := graph {};
		for P exhaustive in doc("papers") let C := graph {
			graph C;
			node P.v1, P.v2;
			edge e1 (P.v1, P.v2);
			unify P.v1, C.v1 where P.v1.name=C.v1.name;
			unify P.v2, C.v2 where P.v2.name=C.v2.name;
		};`, QueryOptions{Docs: Store{"papers": coll}})
	if err != nil {
		t.Fatal(err)
	}
	cg := res.Vars["C"]
	if cg == nil || cg.NumNodes() != 3 || cg.NumEdges() != 2 {
		t.Fatalf("co-author graph wrong: %v", cg)
	}
}

func TestFacadeCollectionIndex(t *testing.T) {
	mk := func(labels string) *Graph {
		g := NewGraph("m")
		var prev NodeID
		for i, c := range labels {
			id := g.AddNode("", TupleOf("", "label", string(c)))
			if i > 0 {
				g.AddEdge("", prev, id, nil)
			}
			prev = id
		}
		return g
	}
	coll := Collection{mk("ABC"), mk("AB"), mk("XYZ")}
	ix := BuildCollectionIndex(coll, 3)
	p := NewPattern("Q")
	a := p.LabelNode("a", "A")
	b := p.LabelNode("b", "B")
	c := p.LabelNode("c", "C")
	p.AddEdge("", a, b, nil, nil)
	p.AddEdge("", b, c, nil, nil)
	hits, verified, err := ix.Select(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != 0 {
		t.Errorf("hits = %v, want [0]", hits)
	}
	if verified > 1 {
		t.Errorf("verified = %d, filter should leave 1 candidate", verified)
	}
}

func TestFacadeServer(t *testing.T) {
	store := Store{}
	g := NewGraph("G")
	g.AddNode("a", TupleOf("author", "name", "Ann"))
	store["DBLP"] = Collection{g}

	srv := NewServer(ServerConfig{Engine: NewEngine(store)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain",
		strings.NewReader(`for graph Q { node v1 <author>; } exhaustive in doc("DBLP") return graph { node Q.v1; };`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "Ann") {
		t.Fatalf("query = %d %s", resp.StatusCode, body)
	}

	mts := httptest.NewServer(MetricsHandler())
	defer mts.Close()
	mresp, err := http.Get(mts.URL)
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "gqldb_queries_total") {
		t.Fatalf("metrics handler output missing counters:\n%s", mbody)
	}
}
