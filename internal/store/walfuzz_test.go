package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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

// FuzzLogFile holds the shared log reader to its contract over whole file
// bytes, the form both the WAL and the checkpoint take on disk: nothing
// panics; OpenWAL keeps a prefix of the file that reads back, without a
// torn tail, as exactly the records it returned — all of them when the
// whole file is intact — or refuses and leaves the file as it was; and
// loadCheckpoint accepts a file only when its records' frames cover every
// byte.
func FuzzLogFile(f *testing.F) {
	log := append([]byte(nil), logHeader...)
	for seq := uint64(1); seq <= 3; seq++ {
		var err error
		if log, err = appendFrame(log, seq, []Mutation{{Op: OpCreateGraph, Doc: "db", Graph: fmt.Sprintf("g%d", seq)}}); err != nil {
			f.Fatal(err)
		}
	}
	s := New(Options{})
	s.RegisterDoc("db", graph.Collection{graph.New("g0"), graph.New("g1")})
	s.RegisterDoc("aux", graph.Collection{graph.New("h")})
	var cp bytes.Buffer
	if err := writeCheckpoint(&cp, s.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(cp.Bytes())
	f.Add(append(append([]byte(nil), cp.Bytes()...), 0))
	f.Add(append([]byte("GQLS\x01"), cp.Bytes()[5:]...))
	f.Add(logHeader)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		cpPath := filepath.Join(dir, "snapshot.bin")
		if err := os.WriteFile(cpPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		strict, _, strictErr := readLog(data, cpPath, false)
		if _, err := loadCheckpoint(New(Options{Shards: 2}), cpPath); err == nil {
			if strictErr != nil {
				t.Fatalf("checkpoint loaded, but the file does not read: %v", strictErr)
			}
			off := len(logHeader)
			for range strict {
				off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
			}
			if off != len(data) {
				t.Fatalf("checkpoint loaded with %d of %d bytes in its records' frames", off, len(data))
			}
		}

		walPath := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := OpenWAL(walPath, false)
		after, rerr := os.ReadFile(walPath)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("refused log was changed from %d to %d bytes", len(data), len(after))
			}
			return
		}
		w.Close()
		if len(data) == 0 {
			data = logHeader
		}
		if !bytes.HasPrefix(data, after) {
			t.Fatalf("kept %d bytes that are not a prefix of the %d-byte file", len(after), len(data))
		}
		kept, _, err := readLog(after, walPath, false)
		if err != nil || len(kept) != len(recs) {
			t.Fatalf("kept prefix reads back as %d records (%v), open returned %d", len(kept), err, len(recs))
		}
		if strictErr == nil && (len(recs) != len(strict) || len(after) != len(data)) {
			t.Fatalf("intact file: open kept %d of %d records", len(recs), len(strict))
		}
	})
}
