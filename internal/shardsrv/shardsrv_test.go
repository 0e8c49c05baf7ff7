package shardsrv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gqldb/internal/graph"
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
