package shardsrv

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
