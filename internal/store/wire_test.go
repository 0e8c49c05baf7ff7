package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
	"gqldb/internal/store"
)

// wirePattern builds a pattern exercising every wire feature: directed
// motif, node tuples (string and int constraints), an edge tuple, node- and
// edge-level where clauses, and a multi-node residual predicate.
func wirePattern(t testing.TB) *store.WireRequest {
	t.Helper()
	p := abPattern(t)
	req := &store.WireRequest{
		Doc: "db", Shard: 0, Shards: 1, Version: 1, Hash: "feed",
		Pattern: store.EncodePattern(p),
		Options: store.EncodeOptions(match.Options{Exhaustive: true, Limit: 3}),
	}
	return req
}

// TestWireRequestRoundTrip: encode → decode returns an equivalent request,
// and the decoded pattern compiles to the same predicate structure.
func TestWireRequestRoundTrip(t *testing.T) {
	req := wirePattern(t)
	var buf bytes.Buffer
	if err := store.EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := store.DecodeRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Doc != req.Doc || got.Shard != req.Shard || got.Shards != req.Shards ||
		got.Version != req.Version || got.Hash != req.Hash {
		t.Fatalf("header mismatch: %+v vs %+v", got, req)
	}
	p, err := got.Pattern.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	orig := abPattern(t)
	if err := orig.Compile(); err != nil {
		t.Fatal(err)
	}
	if p.Motif.NumNodes() != orig.Motif.NumNodes() || p.Motif.NumEdges() != orig.Motif.NumEdges() {
		t.Fatalf("motif shape changed: %d/%d nodes, %d/%d edges",
			p.Motif.NumNodes(), orig.Motif.NumNodes(), p.Motif.NumEdges(), orig.Motif.NumEdges())
	}
	opt, err := got.Options.Options()
	if err != nil {
		t.Fatal(err)
	}
	if want := (match.Options{Exhaustive: true, Limit: 3}); opt != want {
		t.Fatalf("options changed over the wire: %+v vs %+v", opt, want)
	}
}

// TestWirePatternSearchEquivalence: a pattern decoded from the wire finds
// exactly the mappings the original finds, in the same order — the
// invariant that makes remote answers byte-identical.
func TestWirePatternSearchEquivalence(t *testing.T) {
	coll := randomCollection(30, 7)
	orig := abPattern(t)
	if err := orig.Compile(); err != nil {
		t.Fatal(err)
	}
	enc := store.EncodePattern(orig)
	b, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var dec store.WirePattern
	if err := json.Unmarshal(b, &dec); err != nil {
		t.Fatal(err)
	}
	rt, err := dec.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range coll {
		a, _, err := match.Find(orig, g, nil, match.Optimized())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := match.Find(rt, g, nil, match.Optimized())
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("graph %d: %d vs %d mappings after round-trip", gi, len(a), len(b))
		}
		for i := range a {
			if len(a[i].Nodes) != len(b[i].Nodes) {
				t.Fatalf("graph %d mapping %d: arity changed", gi, i)
			}
			for j := range a[i].Nodes {
				if a[i].Nodes[j] != b[i].Nodes[j] {
					t.Fatalf("graph %d mapping %d: node %d maps to %d vs %d",
						gi, i, j, a[i].Nodes[j], b[i].Nodes[j])
				}
			}
		}
	}
}

// TestWireResultRoundTrip: EncodeResult → DecodeResult reproduces the
// groups with mappings bound to the local shard's graphs.
func TestWireResultRoundTrip(t *testing.T) {
	coll := randomCollection(20, 11)
	s := store.New(store.Options{Shards: 3})
	s.RegisterDoc("db", coll)
	d, _ := s.Snapshot().Doc("db")
	p := abPattern(t)
	req := store.ShardRequest{Shard: d.Shards()[0], P: p, Opt: match.Optimized(), Workers: 1, Doc: d, Index: 0}
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	res, err := (store.LocalSelector{}).SelectShard(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.EncodeResult(&buf, &res, 42); err != nil {
		t.Fatal(err)
	}
	got, err := store.DecodeResult(&buf, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Candidates != res.Candidates {
		t.Fatalf("candidates %d, want %d", got.Candidates, res.Candidates)
	}
	if len(got.Groups) != len(res.Groups) {
		t.Fatalf("groups %d, want %d", len(got.Groups), len(res.Groups))
	}
	for li := range res.Groups {
		a, b := res.Groups[li], got.Groups[li]
		if len(a) != len(b) {
			t.Fatalf("member %d: %d vs %d bindings", li, len(a), len(b))
		}
		for i := range a {
			if a[i].G != b[i].G {
				t.Fatalf("member %d binding %d: rebinding lost the graph pointer", li, i)
			}
			for j := range a[i].M.Nodes {
				if a[i].M.Nodes[j] != b[i].M.Nodes[j] {
					t.Fatalf("member %d binding %d: mapping changed", li, i)
				}
			}
		}
	}
}

// TestWireDecodeRejects: malformed requests and frames come back as typed
// *WireError values, never as panics or silent acceptance.
func TestWireDecodeRejects(t *testing.T) {
	badReqs := []string{
		``,
		`{`,
		`{"doc":""}`,
		`{"doc":"db","shard":-1,"shards":3}`,
		`{"doc":"db","shard":3,"shards":3}`,
		`{"doc":"db","shard":0,"shards":0}`,
		`{"doc":"db","shard":0,"shards":99999999}`,
	}
	for _, src := range badReqs {
		_, err := store.DecodeRequest(strings.NewReader(src))
		var we *store.WireError
		if !errors.As(err, &we) {
			t.Fatalf("DecodeRequest(%q): got %v, want *WireError", src, err)
		}
	}
	badFrames := []string{
		``,
		`not json`,
		`{"t":"mystery"}`,
		`{"t":"group","ord":-1}`,
		`{"t":"group","ord":0,"matches":[{"n":[-1]}]}`,
		`{"t":"group","ord":0,"matches":[{"n":[0],"e":[-2]}]}`,
		`{"t":"done","candidates":-1}`,
		`{"t":"error"}`,
	}
	for _, src := range badFrames {
		_, err := store.DecodeFrame([]byte(src))
		var we *store.WireError
		if !errors.As(err, &we) {
			t.Fatalf("DecodeFrame(%q): got %v, want *WireError", src, err)
		}
	}
	// Malformed motifs: not GQLB, truncated, zero or two graphs, a
	// dangling edge endpoint, a duplicate node name; then an unparseable
	// predicate over a good motif.
	good := store.EncodePattern(abPattern(t)).Motif
	two := graph.New("P")
	two.AddNode("a", nil)
	motif := func(c graph.Collection) []byte {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// "GQLB" v1, one graph "P", undirected, no attributes, then nodes and
	// edges as hand-written records.
	head := []byte("GQLB\x01\x01\x01P\x00\x00")
	bad := map[string]store.WirePattern{
		"not GQLB":   {Motif: []byte("nope")},
		"truncated":  {Motif: good[:len(good)-3]},
		"no graph":   {Motif: motif(graph.Collection{})},
		"two graphs": {Motif: motif(graph.Collection{two, two})},
		"dangling edge": {Motif: append(append([]byte{}, head...),
			1, 1, 'a', 0, // node "a"
			1, 1, 'e', 0, 5, 0)}, // edge "e" from 0 to 5
		"duplicate node": {Motif: append(append([]byte{}, head...),
			2, 1, 'a', 0, 1, 'a', 0, 0)},
		"bad predicate": {Motif: good, Where: "((("},
	}
	for name, wp := range bad {
		var we *store.WireError
		if _, err := wp.Pattern(); !errors.As(err, &we) {
			t.Errorf("%s: got %v, want *WireError", name, err)
		}
	}
}

// TestWireResultRejectsArity: a group frame whose mapping binds fewer (or
// more) pattern elements than the request's pattern has is refused, typed,
// before any binding reaches the frontend.
func TestWireResultRejectsArity(t *testing.T) {
	s := store.New(store.Options{Shards: 1})
	s.RegisterDoc("db", randomCollection(4, 3))
	d, _ := s.Snapshot().Doc("db")
	p := abPattern(t)
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	req := store.ShardRequest{Shard: d.Shards()[0], P: p, Opt: match.Optimized(), Workers: 1, Doc: d, Index: 0}
	for _, m := range []string{`{"n":[0]}`, `{"n":[0,1]}`, `{"n":[0,1,2],"e":[0]}`, `{"n":[0,1],"e":[0,1]}`} {
		frames := `{"t":"group","ord":0,"matches":[` + m + `]}` + "\n" + `{"t":"done"}` + "\n"
		var we *store.WireError
		if _, err := store.DecodeResult(strings.NewReader(frames), req); !errors.As(err, &we) {
			t.Errorf("mapping %s for a 2-node, 1-edge pattern: got %v, want *WireError", m, err)
		}
	}
}

// TestWireValueKinds: every value kind in a motif tuple survives the GQLB
// motif encoding and the JSON request around it.
func TestWireValueKinds(t *testing.T) {
	tup := graph.NewTuple("tag")
	tup.Set("i", graph.Int(-7))
	tup.Set("f", graph.Float(2.5))
	tup.Set("s", graph.String("x y"))
	tup.Set("b", graph.Bool(true))
	tup.Set("n", graph.Null)
	tp := pattern.New("P")
	tp.AddNode("a", tup, nil)
	enc := store.EncodePattern(tp)
	b, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var dec store.WirePattern
	if err := json.Unmarshal(b, &dec); err != nil {
		t.Fatal(err)
	}
	rt, err := dec.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	got := rt.Motif.Node(0).Attrs
	if got == nil || got.Tag != "tag" || got.Len() != tup.Len() {
		t.Fatalf("tuple shape lost: %v", got)
	}
	for i := 0; i < tup.Len(); i++ {
		a, g := tup.At(i), got.At(i)
		if a.Name != g.Name || a.Val.Kind() != g.Val.Kind() || a.Val.String() != g.Val.String() {
			t.Fatalf("attr %d changed: %v vs %v", i, a, g)
		}
	}
}
