package store

import (
	"bytes"
	"testing"

	"gqldb/internal/graph"
)

// FuzzWALRecord holds the WAL payload decoder to its contract over
// arbitrary bytes — the log is read back from disk, a hostile boundary:
// decodeWALPayload never panics, and every payload it accepts re-encodes
// to a payload that decodes to the same record (the second encoding equals
// the first, so nothing the log carries changed).
func FuzzWALRecord(f *testing.F) {
	body := graph.New("gb")
	a := body.AddNode("a", graph.TupleOf("", "label", "A"))
	b := body.AddNode("b", graph.TupleOf("t", "w", int64(3), "f", 1.5))
	body.AddEdge("e", a, b, graph.TupleOf("", "k", true))
	doc := graph.Collection{body, graph.New("g1"), graph.New("g1")}
	// One record per op; the register record carries several graphs,
	// duplicate names included.
	for i, m := range []Mutation{
		{Op: OpCreateGraph, Doc: "db", Graph: "gb", Body: body},
		{Op: OpCreateGraph, Doc: "db", Graph: "h", Attrs: graph.TupleOf("", "kind", "x")},
		{Op: OpDropGraph, Doc: "db", Graph: "h"},
		{Op: OpInsertNode, Doc: "db", Graph: "gb", Name: "c", Attrs: graph.TupleOf("", "label", "C")},
		{Op: OpInsertEdge, Doc: "db", Graph: "gb", Name: "e2", From: "a", To: "c"},
		{Op: OpDeleteNode, Doc: "db", Graph: "gb", Name: "b"},
		{Op: OpDeleteEdge, Doc: "db", Graph: "gb", Name: "e"},
		{Op: OpRegisterDoc, Doc: "db", Coll: doc},
	} {
		p, err := encodeWALPayload(uint64(i+1), []Mutation{m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 1, byte(OpRegisterDoc), 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 1<<20 {
			t.Skip("oversized input")
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			return
		}
		p1, err := encodeWALPayload(rec.Seq, rec.Muts)
		if err != nil {
			t.Fatalf("re-encoding accepted record: %v", err)
		}
		rec2, err := decodeWALPayload(p1)
		if err != nil {
			t.Fatalf("re-decoding re-encoded record: %v", err)
		}
		p2, err := encodeWALPayload(rec2.Seq, rec2.Muts)
		if err != nil {
			t.Fatalf("re-encoding round-tripped record: %v", err)
		}
		if !bytes.Equal(p1, p2) {
			t.Fatalf("record changed over a round trip:\n%x\n%x", p1, p2)
		}
	})
}
