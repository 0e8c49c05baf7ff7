package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/store"
)

// mutateEngine builds an engine over a DocStore holding one document with
// one A-labeled node.
func mutateEngine() (*Engine, *store.DocStore) {
	ds := store.New(store.Options{Shards: 2})
	g := graph.New("G")
	g.AddNode("a", graph.TupleOf("", "label", "A"))
	ds.RegisterDoc("db", graph.Collection{g})
	return NewOver(ds), ds
}

// TestMutateLowersAndApplies drives the full Engine.Mutate path: parse,
// lowering (tuples evaluated, create-graph bodies built) and one
// transactional batch whose effects are visible to a following query.
func TestMutateLowersAndApplies(t *testing.T) {
	e, ds := mutateEngine()
	ctx := context.Background()
	sum, err := e.Mutate(ctx, `
create graph H <kind="scratch"> { node x <label="A">; node y <label="B">; edge xy (x, y); } in doc("db");
insert node b <label="B", weight=3> into G in doc("db");
insert edge ab (a, b) into G in doc("db");
`)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mutations != 3 || sum.GraphsCreated != 1 || sum.NodesAdded != 3 || sum.EdgesAdded != 2 {
		t.Fatalf("summary %+v, want 3 mutations, 1 graph, 3 nodes, 2 edges", sum)
	}
	if sum.Version != ds.Version() {
		t.Fatalf("summary version %d, store version %d", sum.Version, ds.Version())
	}

	d, _ := ds.Snapshot().Doc("db")
	var h *graph.Graph
	for _, g := range d.Collection() {
		if g.Name == "H" {
			h = g
		}
	}
	if h == nil {
		t.Fatal("created graph H not in document")
	}
	if got := h.Attrs.GetOr("kind").AsString(); got != "scratch" {
		t.Fatalf("H attrs = %q, want scratch", got)
	}
	if len(h.Nodes()) != 2 || len(h.Edges()) != 1 {
		t.Fatalf("H has %d nodes %d edges, want 2/1", len(h.Nodes()), len(h.Edges()))
	}

	res, err := e.RunQuery(ctx, `
graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };
for P exhaustive in doc("db")
return graph { node P.v1; node P.v2; edge (P.v1, P.v2); };
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 2 {
		t.Fatalf("post-mutation query found %d matches, want 2 (G and H)", len(res.Out))
	}
}

// TestMutateRejections: parse failures are ParseErrors, mixed programs
// and query statements are rejected before touching the store, and the
// read path refuses mutation statements symmetrically.
func TestMutateRejections(t *testing.T) {
	e, ds := mutateEngine()
	ctx := context.Background()
	v := ds.Version()

	if _, err := e.Mutate(ctx, `insert node into;`); err == nil {
		t.Fatal("malformed program accepted")
	} else {
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("malformed program error is %T, want *ParseError", err)
		}
	}

	mixed := `insert node b into G in doc("db"); graph Q { node v1; };`
	if _, err := e.Mutate(ctx, mixed); err == nil ||
		!strings.Contains(err.Error(), "solely of mutation statements") {
		t.Fatalf("mixed program error = %v", err)
	}

	// The read path rejects mutation statements with a pointer at Mutate.
	if _, err := e.RunQuery(ctx, `drop graph G in doc("db");`); err == nil ||
		!strings.Contains(err.Error(), "mutation statement") {
		t.Fatalf("read-path mutation error = %v", err)
	}
	if ds.Version() != v {
		t.Fatalf("rejected programs moved the store version %d -> %d", v, ds.Version())
	}
}
