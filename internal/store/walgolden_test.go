package store

import (
	"encoding/hex"
	"testing"

	"gqldb/internal/graph"
)

// goldenBatch is a fixed batch touching every WAL field: each op, a tagged
// tuple of every value kind, an edge tuple, a graph body and a registered
// multi-graph document.
func goldenBatch() []Mutation {
	body := graph.New("gb")
	a := body.AddNode("a", graph.TupleOf("", "label", "A"))
	b := body.AddNode("b", graph.TupleOf("t", "i", int64(-3), "f", 1.5, "s", "x y", "b", true, "n", graph.Null))
	body.AddEdge("e", a, b, graph.TupleOf("", "k", false))
	body.Attrs = graph.TupleOf("", "year", int64(2001))
	doc := graph.Collection{body, graph.New("g1")}
	return []Mutation{
		{Op: OpCreateGraph, Doc: "db", Graph: "gb", Body: body},
		{Op: OpCreateGraph, Doc: "db", Graph: "h", Attrs: graph.TupleOf("", "kind", "x")},
		{Op: OpInsertNode, Doc: "db", Graph: "gb", Name: "c", Attrs: graph.TupleOf("t", "w", int64(1<<40), "f", -0.25)},
		{Op: OpInsertEdge, Doc: "db", Graph: "gb", Name: "e2", From: "a", To: "c"},
		{Op: OpDeleteEdge, Doc: "db", Graph: "gb", Name: "e"},
		{Op: OpDeleteNode, Doc: "db", Graph: "gb", Name: "b"},
		{Op: OpDropGraph, Doc: "db", Graph: "h"},
		{Op: OpRegisterDoc, Doc: "other", Coll: doc},
	}
}

// walGolden is encodeWALPayload(9, goldenBatch()): the WAL's on-disk bytes,
// which a change to the codec's buffering must leave exactly as they are.
const walGolden = "09080002646202676200000000015447514c42010102676200010001047965617201a21f020161010001056c6162656c0301410162010174050169010501660280808080808080fc3f0173030378207901620401016e000101650001010001016b0400000264620168000000010001046b696e640301780002026462026762016300000101740201770180808080804001660280808080808080e8bf0100030264620267620265320161016300000502646202676201650000000004026462026762016200000000010264620168000000000006056f746865720000000000015b47514c42010202676200010001047965617201a21f020161010001056c6162656c0301410162010174050169010501660280808080808080fc3f0173030378207901620401016e000101650001010001016b040002673100000000"

// TestWALPayloadGolden pins the WAL payload bytes, graph bodies included,
// and checks they decode back to the same payload.
func TestWALPayloadGolden(t *testing.T) {
	p, err := encodeWALPayload(9, goldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(p); got != walGolden {
		t.Fatalf("WAL payload bytes changed:\ngot  %s\nwant %s", got, walGolden)
	}
	rec, err := decodeWALPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeWALPayload(rec.Seq, rec.Muts)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(again) != walGolden {
		t.Fatal("decoded golden payload re-encodes differently")
	}
}
