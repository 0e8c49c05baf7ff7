package shardsrv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
	"gqldb/internal/store"
)

// TestBootstrapVersionsDeterministic: two mirrors bootstrapped from the same
// -doc bindings agree on the store version and on every document's version
// (what the stale/unknown_doc frames report), whatever order the binding
// map iterates in. Registering in map order made them differ from run to
// run.
func TestBootstrapVersionsDeterministic(t *testing.T) {
	dir := t.TempDir()
	docs := store.DocFlags{}
	for i := 0; i < 8; i++ {
		path := filepath.Join(dir, fmt.Sprintf("d%d.gql", i))
		src := fmt.Sprintf("graph G%d { node v <label=\"A\">; };\n", i)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := docs.Set(fmt.Sprintf("doc%d=%s", i, path)); err != nil {
			t.Fatal(err)
		}
	}
	versions := func() map[string]uint64 {
		srv := New(Config{Shards: 2})
		if err := srv.Bootstrap(store.BootstrapFiles(docs, t.Logf)); err != nil {
			t.Fatal(err)
		}
		sn := srv.store.Snapshot()
		out := map[string]uint64{"": sn.Version()}
		for _, name := range sn.Docs() {
			d, _ := sn.Doc(name)
			out[name] = d.Version()
		}
		return out
	}
	first := versions()
	if len(first) != 9 || first[""] != 8 {
		t.Fatalf("bootstrap registered %v, want 8 documents at store version 8", first)
	}
	for round := 0; round < 4; round++ {
		if again := versions(); fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("bootstrap versions differ between runs:\n%v\n%v", first, again)
		}
	}
}

// failingReader fails every read, like a client that drops mid-body.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestSyncBodyErrors drives /shard/sync directly: only a body over MaxBody
// is a 413; an unreadable or malformed body is a 400 and installs nothing;
// a well-formed push installs the document.
func TestSyncBodyErrors(t *testing.T) {
	g := graph.New("G")
	g.AddNode("a", graph.TupleOf("", "label", "A"))
	var coll bytes.Buffer
	if err := graph.WriteBinary(&coll, graph.Collection{g}); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 2, MaxBody: int64(coll.Len())})
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"oversize", bytes.NewReader(append(coll.Bytes(), 0)), 413},
		{"unreadable", failingReader{}, 400},
		{"malformed", strings.NewReader("GQLBnot a collection"), 400},
		{"ok", bytes.NewReader(coll.Bytes()), 200},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/shard/sync?doc="+tc.name, tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
		}
		if _, ok := srv.store.Snapshot().Doc(tc.name); ok != (tc.want == 200) {
			t.Errorf("%s: document installed = %v", tc.name, ok)
		}
	}
}

// selectFixture is a two-shard mirror of a small document in which some
// members contain an A->B edge and some do not, plus a request for that
// edge pattern which the mirror accepts as-is.
func selectFixture(t *testing.T) (*Server, *store.Doc, *pattern.Pattern, store.WireRequest) {
	t.Helper()
	var coll graph.Collection
	for i := 0; i < 8; i++ {
		// Even-numbered names spread the members over both shards (with
		// "g%d" the name hash and the ordinal cancel out in the low bit).
		g := graph.New(fmt.Sprintf("g%d", 2*i))
		a := g.AddNode("", graph.TupleOf("", "label", "A"))
		b := g.AddNode("", graph.TupleOf("", "label", "B"))
		if i%3 != 0 {
			g.AddEdge("", a, b, nil)
		}
		coll = append(coll, g)
	}
	srv := New(Config{Shards: 2})
	if _, err := srv.RegisterDoc("db", coll); err != nil {
		t.Fatal(err)
	}
	d, _ := srv.store.Snapshot().Doc("db")
	p := pattern.New("P")
	p.AddEdge("", p.LabelNode("v1", "A"), p.LabelNode("v2", "B"), nil, nil)
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	req := store.WireRequest{
		Doc: "db", Shard: 1, Shards: 2, Version: d.Version(), Hash: d.ContentHash(),
		Workers: 1, Pattern: store.EncodePattern(p), Options: store.EncodeOptions(match.Options{Exhaustive: true}),
	}
	return srv, d, p, req
}

// postSelect drives /shard/select with body and decodes every answer line
// with store.DecodeFrame. The protocol answers every request with HTTP 200.
func postSelect(t *testing.T, srv *Server, body []byte) []*store.WireFrame {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/shard/select", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status %d, want 200 (%s)", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var frames []*store.WireFrame
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		f, err := store.DecodeFrame(sc.Bytes())
		if err != nil {
			t.Fatalf("undecodable frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	return frames
}

func encodeRequest(t *testing.T, req store.WireRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.EncodeRequest(&buf, &req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSelectErrorFrames drives /shard/select directly: every refusal is a
// single in-band error frame with the code the frontend dispatches on, and
// the stale and topology frames carry the mirror's version and hash.
func TestSelectErrorFrames(t *testing.T) {
	srv, d, _, good := selectFixture(t)
	with := func(edit func(*store.WireRequest)) []byte {
		r := good
		edit(&r)
		return encodeRequest(t, r)
	}
	for _, tc := range []struct {
		name        string
		body        []byte
		code        string
		versionHash bool
	}{
		{"malformed body", []byte("{not json"), store.WireCodeBadRequest, false},
		{"negative limit", with(func(r *store.WireRequest) { r.Options.Limit = -1 }), store.WireCodeBadRequest, false},
		{"unknown document", with(func(r *store.WireRequest) { r.Doc = "nope" }), store.WireCodeUnknownDoc, false},
		{"hash mismatch", with(func(r *store.WireRequest) { r.Hash = "0000000000000000" }), store.WireCodeStale, true},
		{"shard width mismatch", with(func(r *store.WireRequest) { r.Shards, r.Shard = 3, 0 }), store.WireCodeTopology, true},
	} {
		frames := postSelect(t, srv, tc.body)
		if len(frames) != 1 || frames[0].T != "error" || frames[0].Code != tc.code {
			t.Errorf("%s: frames %+v, want one %q error frame", tc.name, frames, tc.code)
			continue
		}
		if f := frames[0]; tc.versionHash && (f.Version != d.Version() || f.Hash != d.ContentHash()) {
			t.Errorf("%s: frame reports version %d hash %q, want %d %q", tc.name, f.Version, f.Hash, d.Version(), d.ContentHash())
		}
	}
}

// TestSelectDraining: a draining server refuses selection jobs with an
// internal error frame, and /healthz answers 503 "draining" so the prober
// marks it unhealthy.
func TestSelectDraining(t *testing.T) {
	srv, _, _, req := selectFixture(t)
	srv.StartDrain()
	frames := postSelect(t, srv, encodeRequest(t, req))
	if len(frames) != 1 || frames[0].T != "error" || frames[0].Code != store.WireCodeInternal {
		t.Fatalf("frames %+v, want one internal error frame", frames)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body struct{ Status string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 503 || body.Status != "draining" {
		t.Fatalf("healthz = %d %q, want 503 draining", rec.Code, body.Status)
	}
}

// TestSelectAnswer: an accepted job answers one group frame per matching
// shard member in ascending ordinal order, each with that member's
// bindings, then a done frame counting the verified members (all of them:
// the mirror is unindexed).
func TestSelectAnswer(t *testing.T) {
	srv, d, p, req := selectFixture(t)
	sh := d.Shards()[req.Shard]
	var want []int
	wantMatches := map[int]int{}
	for li, g := range sh.Coll {
		maps, _, err := match.Find(p, g, nil, match.Options{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(maps) > 0 {
			want = append(want, li)
			wantMatches[li] = len(maps)
		}
	}
	if len(want) == 0 || len(want) == len(sh.Coll) {
		t.Fatalf("degenerate fixture: %d of %d members match", len(want), len(sh.Coll))
	}
	frames := postSelect(t, srv, encodeRequest(t, req))
	if len(frames) != len(want)+1 {
		t.Fatalf("%d frames, want %d groups and a done frame: %+v", len(frames), len(want), frames)
	}
	for i, li := range want {
		if f := frames[i]; f.T != "group" || f.Ord != li || len(f.Matches) != wantMatches[li] {
			t.Errorf("frame %d = %+v, want group ord %d with %d matches", i, f, li, wantMatches[li])
		}
	}
	if f := frames[len(want)]; f.T != "done" || f.Candidates != len(sh.Coll) {
		t.Errorf("last frame = %+v, want done with %d candidates", f, len(sh.Coll))
	}
}

// TestSelectGraphGate: a pattern whose where clause reads a graph attribute
// crosses the wire as source text and is recompiled by the mirror with the
// same graph gate, so /shard/select for P.booktitle = "X" answers exactly
// the groups the in-process coordinator finds on that shard.
func TestSelectGraphGate(t *testing.T) {
	var coll graph.Collection
	for i := 0; i < 12; i++ {
		g := graph.New(fmt.Sprintf("g%d", 2*i))
		g.Attrs = graph.TupleOf("", "booktitle", []string{"X", "Y", "Z"}[i%3])
		a := g.AddNode("", graph.TupleOf("", "label", "A"))
		b := g.AddNode("", graph.TupleOf("", "label", "B"))
		if i%4 != 0 {
			g.AddEdge("", a, b, nil)
		}
		coll = append(coll, g)
	}
	srv := New(Config{Shards: 2})
	if _, err := srv.RegisterDoc("db", coll); err != nil {
		t.Fatal(err)
	}
	d, _ := srv.store.Snapshot().Doc("db")
	cond, err := parser.ParseExpr(`P.booktitle = "X"`)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.New("P")
	p.AddEdge("", p.LabelNode("v1", "A"), p.LabelNode("v2", "B"), nil, nil)
	p.Where(cond)
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	opt := match.Options{Exhaustive: true}
	all, err := (&store.Coordinator{}).Select(context.Background(), d, p, opt, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for shard, sh := range d.Shards() {
		ord := map[*graph.Graph]int{}
		for li, g := range sh.Coll {
			ord[g] = li
		}
		var want []string
		for _, m := range all {
			if li, ok := ord[m.G]; ok {
				want = append(want, fmt.Sprintf("group %d %v %v", li, m.M.Nodes, m.M.Edges))
			}
		}
		if len(want) == 0 {
			t.Fatalf("degenerate fixture: shard %d has no P.booktitle = \"X\" match", shard)
		}
		req := store.WireRequest{
			Doc: "db", Shard: shard, Shards: 2, Version: d.Version(), Hash: d.ContentHash(),
			Workers: 1, Pattern: store.EncodePattern(p), Options: store.EncodeOptions(opt),
		}
		frames := postSelect(t, srv, encodeRequest(t, req))
		var got []string
		for _, f := range frames {
			if f.T != "group" {
				continue
			}
			for _, m := range f.Matches {
				got = append(got, fmt.Sprintf("group %d %v %v", f.Ord, m.Nodes, m.Edges))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("shard %d: mirror answered\n%v\nthe coordinator found\n%v", shard, got, want)
		}
		if last := frames[len(frames)-1]; last.T != "done" || last.Candidates != len(sh.Coll) {
			t.Errorf("shard %d: last frame = %+v, want done with %d candidates", shard, last, len(sh.Coll))
		}
	}
}

// TestSyncedLargeMemberSelect: a mirror that receives a document through
// /shard/sync indexes its large members with the same store code as the
// frontend, and /shard/select over them answers exactly the groups the
// in-process coordinator finds on the frontend's copy.
func TestSyncedLargeMemberSelect(t *testing.T) {
	var coll graph.Collection
	for i := 0; i < 6; i++ {
		var g *graph.Graph
		if i%3 == 1 {
			g = gen.PrefAttach(1024, 4096, 16, int64(i))
		} else {
			g = gen.ER(12, 24, 4, int64(i))
		}
		g.Name = fmt.Sprintf("g%d", 2*i)
		coll = append(coll, g)
	}
	front := store.New(store.Options{Shards: 2})
	if _, err := front.RegisterDoc("db", coll); err != nil {
		t.Fatal(err)
	}
	d, _ := front.Snapshot().Doc("db")

	var body bytes.Buffer
	if err := graph.WriteBinary(&body, coll); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 2})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/shard/sync?doc=db", &body))
	if rec.Code != 200 {
		t.Fatalf("sync: status %d (%s)", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	mirror, _ := srv.store.Snapshot().Doc("db")
	if mirror.ContentHash() != d.ContentHash() {
		t.Fatal("mirror content differs from the frontend's")
	}
	indexed := 0
	for ord, g := range mirror.Collection() {
		if mirror.MemberIndex(ord) != nil {
			indexed++
			if g.NumNodes() < 1024 {
				t.Fatalf("mirror indexed small member %s", g.Name)
			}
		}
	}
	if indexed != 2 {
		t.Fatalf("mirror indexed %d members, want the 2 large ones", indexed)
	}

	p := gen.GraphCliqueQuery(coll[1], 3, rand.New(rand.NewSource(3)))
	if p == nil {
		t.Fatal("no clique sampled")
	}
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	opt := match.Options{Exhaustive: true}
	all, err := (&store.Coordinator{}).Select(context.Background(), d, p, opt, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for shard, sh := range d.Shards() {
		ord := map[*graph.Graph]int{}
		for li, g := range sh.Coll {
			ord[g] = li
		}
		var want []string
		for _, m := range all {
			if li, ok := ord[m.G]; ok {
				want = append(want, fmt.Sprintf("group %d %v %v", li, m.M.Nodes, m.M.Edges))
			}
		}
		req := store.WireRequest{
			Doc: "db", Shard: shard, Shards: 2, Version: mirror.Version(), Hash: d.ContentHash(),
			Workers: 2, Pattern: store.EncodePattern(p), Options: store.EncodeOptions(opt),
		}
		var got []string
		for _, f := range postSelect(t, srv, encodeRequest(t, req)) {
			if f.T == "error" {
				t.Fatalf("shard %d: error frame %+v", shard, f)
			}
			for _, m := range f.Matches {
				got = append(got, fmt.Sprintf("group %d %v %v", f.Ord, m.Nodes, m.Edges))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("shard %d: mirror answered\n%v\nthe coordinator found\n%v", shard, got, want)
		}
	}
	if len(all) == 0 {
		t.Fatal("degenerate fixture: the clique has no match")
	}
}
