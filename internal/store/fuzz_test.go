package store_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gqldb/internal/ast"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
	"gqldb/internal/store"
)

// FuzzShardWire asserts the shard wire protocol's total-function contract
// over arbitrary bytes, fed to every decoder (a request line, a response
// frame, and a whole response stream decoded against a fixed 2-node
// request): parse or return a typed *WireError / *ShardRemoteError, never
// panic, and everything accepted must round-trip — an accepted pattern
// re-encodes to one that compiles to the same shape, and an accepted
// response binds only mappings the frontend can use.
func FuzzShardWire(f *testing.F) {
	// Valid seeds: a full request and each response frame shape.
	p := abPattern(f)
	req := &store.WireRequest{
		Doc: "db", Shard: 1, Shards: 3, Version: 7, Hash: "00ff",
		Workers: 2,
		Pattern: store.EncodePattern(p),
		Options: store.EncodeOptions(match.Optimized()),
	}
	addReq := func() {
		var buf bytes.Buffer
		if err := store.EncodeRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addReq()
	// A pattern whose where clause reads graph attributes (bare and
	// P-qualified): the mirror recompiles the same graph gate from the
	// predicate's source text.
	gated, err := parser.Parse(`graph P { node v1 where label="A"; node v2; edge (v1, v2); } where P.booktitle = "X" & year >= 2000;`)
	if err != nil {
		f.Fatal(err)
	}
	gp, err := gated.Stmts[0].(*ast.GraphDecl).ToPattern()
	if err != nil {
		f.Fatal(err)
	}
	req.Pattern = store.EncodePattern(gp)
	addReq()
	// A directed motif whose tuples carry every value kind, on a node and
	// on an edge; then its motif truncated, and a motif of two graphs.
	kinds := graph.TupleOf("t", "i", int64(-7), "f", 2.5, "s", "x y", "b", true, "n", graph.Null)
	kp := pattern.NewDirected("K")
	a := kp.AddNode("a", kinds, nil)
	b := kp.AddNode("b", nil, nil)
	kp.AddEdge("e", a, b, graph.TupleOf("", "w", 1.0), nil)
	good := store.EncodePattern(kp)
	req.Pattern = good
	addReq()
	req.Pattern = store.WirePattern{Motif: good.Motif[:len(good.Motif)/2]}
	addReq()
	var two bytes.Buffer
	if err := graph.WriteBinary(&two, graph.Collection{kp.Motif, kp.Motif}); err != nil {
		f.Fatal(err)
	}
	req.Pattern = store.WirePattern{Motif: two.Bytes()}
	addReq()
	f.Add([]byte(`{"t":"group","ord":2,"matches":[{"n":[0,3],"e":[1]}]}`))
	f.Add([]byte(`{"t":"done","candidates":12,"version":4}`))
	f.Add([]byte(`{"t":"error","code":"stale","message":"m","version":9,"hash":"aa"}`))
	// A whole answer for the fixed request, and one whose mapping binds one
	// node of the 2-node pattern.
	f.Add([]byte(`{"t":"group","ord":0,"matches":[{"n":[0,1],"e":[0]}]}` + "\n" + `{"t":"done"}`))
	f.Add([]byte(`{"t":"group","ord":0,"matches":[{"n":[0]}]}` + "\n" + `{"t":"done"}`))
	// Malformed seeds steering the fuzzer at the validation branches.
	f.Add([]byte(`{"doc":"db","shard":5,"shards":3}`))
	f.Add([]byte(`{"t":"group","ord":-1}`))
	f.Add([]byte(`{"t":"group","matches":[{"n":[-9]}]}`))
	f.Add([]byte(`{"t":"wat"}`))
	f.Add([]byte(`{`))

	// The fixed request response streams are decoded against: abPattern
	// over one shard of two-node, one-edge graphs.
	g := graph.New("g")
	g.AddEdge("", g.AddNode("", nil), g.AddNode("", nil), nil)
	s := store.New(store.Options{Shards: 1})
	s.RegisterDoc("db", graph.Collection{g, g.Clone()})
	d, _ := s.Snapshot().Doc("db")
	if err := p.Compile(); err != nil {
		f.Fatal(err)
	}
	sreq := store.ShardRequest{Shard: d.Shards()[0], P: p, Opt: match.Optimized(), Workers: 1, Doc: d}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		// Request decode: never panics; failure is always a *WireError.
		r, err := store.DecodeRequest(bytes.NewReader(data))
		if err != nil {
			var we *store.WireError
			if !errors.As(err, &we) {
				t.Fatalf("DecodeRequest error is %T, want *WireError: %v", err, err)
			}
		} else {
			// Accepted requests round-trip: encode and decode again to the
			// same header and the same pattern wire form.
			var out bytes.Buffer
			if err := store.EncodeRequest(&out, r); err != nil {
				t.Fatalf("re-encoding accepted request: %v", err)
			}
			r2, err := store.DecodeRequest(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("re-decoding round-tripped request: %v", err)
			}
			if r2.Doc != r.Doc || r2.Shard != r.Shard || r2.Shards != r.Shards ||
				r2.Version != r.Version || r2.Hash != r.Hash || r2.Workers != r.Workers {
				t.Fatalf("request header changed over round-trip: %+v vs %+v", r2, r)
			}
			if !bytes.Equal(r2.Pattern.Motif, r.Pattern.Motif) || r2.Pattern.Where != r.Pattern.Where {
				t.Fatalf("pattern wire form changed over round-trip")
			}
			// A decodable pattern must compile without panicking; a failure
			// must be typed. One that compiles re-encodes to a pattern that
			// compiles to the same planning shape (the shape carries the
			// residual predicate the graph gate is derived from).
			if p1, perr := r.Pattern.Pattern(); perr != nil {
				var we *store.WireError
				if !errors.As(perr, &we) {
					t.Fatalf("Pattern error is %T, want *WireError: %v", perr, perr)
				}
			} else if p2, perr := store.EncodePattern(p1).Pattern(); perr != nil {
				t.Fatalf("round-tripped pattern no longer compiles: %v", perr)
			} else if p2.Shape() != p1.Shape() {
				t.Fatalf("round-tripped pattern compiles to shape %q, want %q", p2.Shape(), p1.Shape())
			}
			if _, oerr := r.Options.Options(); oerr != nil {
				var we *store.WireError
				if !errors.As(oerr, &we) {
					t.Fatalf("Options error is %T, want *WireError: %v", oerr, oerr)
				}
			}
		}
		// Stream decode against the fixed request: failures are typed, and
		// every accepted binding has the pattern's arity and renders.
		if res, err := store.DecodeResult(bytes.NewReader(data), sreq); err != nil {
			var we *store.WireError
			var re *store.ShardRemoteError
			if !errors.As(err, &we) && !errors.As(err, &re) {
				t.Fatalf("DecodeResult error is %T, want *WireError or *ShardRemoteError: %v", err, err)
			}
		} else {
			for _, group := range res.Groups {
				for _, m := range group {
					m.InducedGraph()
				}
			}
		}
		// Frame decode over the same bytes (first line only, mirroring the
		// NDJSON reader).
		line := data
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		fr, err := store.DecodeFrame(line)
		if err != nil {
			var we *store.WireError
			if !errors.As(err, &we) {
				t.Fatalf("DecodeFrame error is %T, want *WireError: %v", err, err)
			}
			return
		}
		// Accepted frames round-trip byte-stably through their wire form.
		var out bytes.Buffer
		if err := store.EncodeFrame(&out, fr); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		fr2, err := store.DecodeFrame(bytes.TrimSuffix(out.Bytes(), []byte("\n")))
		if err != nil {
			t.Fatalf("re-decoding round-tripped frame: %v", err)
		}
		if fr2.T != fr.T || fr2.Ord != fr.Ord || fr2.Candidates != fr.Candidates ||
			fr2.Code != fr.Code || fr2.Version != fr.Version || len(fr2.Matches) != len(fr.Matches) {
			t.Fatalf("frame changed over round-trip: %+v vs %+v", fr2, fr)
		}
	})
}

// TestFuzzShardWireSeeds runs the fuzz body over its seeds in a plain test
// so `go test` exercises the contract without -fuzz.
func TestFuzzShardWireSeeds(t *testing.T) {
	for _, src := range []string{
		`{"t":"group","ord":2,"matches":[{"n":[0,3],"e":[1]}]}`,
		`{"t":"done","candidates":12,"version":4}`,
		`{"t":"error","code":"stale","message":"m"}`,
	} {
		fr, err := store.DecodeFrame([]byte(src))
		if err != nil {
			t.Fatalf("seed %q rejected: %v", src, err)
		}
		var out bytes.Buffer
		if err := store.EncodeFrame(&out, fr); err != nil {
			t.Fatal(err)
		}
		if _, err := store.DecodeFrame([]byte(strings.TrimSuffix(out.String(), "\n"))); err != nil {
			t.Fatalf("seed %q did not round-trip: %v", src, err)
		}
	}
}
