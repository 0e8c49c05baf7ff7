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
	// A malformed pattern: an edge referencing an undeclared node.
	wp := store.WirePattern{
		Name:  "P",
		Nodes: []store.WireNode{{Name: "a"}},
		Edges: []store.WireEdge{{Name: "e", From: "a", To: "ghost"}},
	}
	if _, err := wp.Pattern(); err == nil {
		t.Fatal("dangling edge endpoint accepted")
	}
	// An unparseable predicate.
	wp = store.WirePattern{Name: "P", Nodes: []store.WireNode{{Name: "a"}}, Where: "((("}
	var we *store.WireError
	if _, err := wp.Pattern(); !errors.As(err, &we) {
		t.Fatal("unparseable predicate not a *WireError")
	}
}

// TestWireValueKinds: every value kind survives the typed encoding.
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
		if a.Name != g.Name || a.Val.Kind() != g.Val.Kind() {
			t.Fatalf("attr %d changed: %v vs %v", i, a, g)
		}
	}
}
