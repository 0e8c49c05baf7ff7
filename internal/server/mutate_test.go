package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/store"
)

// postMutate posts a raw mutation program to /v2/mutate and returns the
// response with its decoded body.
func postMutate(t *testing.T, url, program string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v2/mutate", "text/plain", strings.NewReader(program))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("response %q is not JSON: %v", body, err)
	}
	return resp, out
}

// TestMutateV2 drives the write endpoint end to end over a durable store:
// a successful batch answers 200 with its summary only after the WAL holds
// the record, parse and application failures map to the wire contract, and
// the mutation is visible to the query plane.
func TestMutateV2(t *testing.T) {
	d, ts := durableServer(t, t.TempDir())
	defer d.Close()
	defer ts.Close()

	// A good batch: 200, summary counts, and the WAL holds it before the
	// response was written (Sync: true fsyncs inside ApplyBatch).
	resp, out := postMutate(t, ts.URL, `
insert node b <label="B"> into G in doc("db");
insert edge e (a, b) into G in doc("db");
`)
	if resp.StatusCode != 200 {
		t.Fatalf("mutate status = %d, body %v", resp.StatusCode, out)
	}
	if out["nodes_added"] != 1.0 || out["edges_added"] != 1.0 {
		t.Fatalf("summary = %v, want 1 node 1 edge added", out)
	}
	if _, ok := out["wall_ms"]; !ok {
		t.Fatalf("summary %v lacks wall_ms", out)
	}
	if recs := d.WALRecords(); recs != 1 {
		t.Fatalf("WAL holds %d records, want the committed batch", recs)
	}

	// The mutation is immediately visible to the query plane.
	q := `graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };
for P exhaustive in doc("db") return graph { node P.v1; node P.v2; edge (P.v1, P.v2); };`
	qresp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var qout queryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qout); err != nil {
		t.Fatal(err)
	}
	if len(qout.Results) != 1 {
		t.Fatalf("post-mutation query returned %d results, want 1", len(qout.Results))
	}

	// Parse failure: 400 parse_error.
	resp, out = postMutate(t, ts.URL, `insert node into;`)
	if resp.StatusCode != 400 {
		t.Fatalf("parse failure status = %d, want 400", resp.StatusCode)
	}
	if code := out["error"].(map[string]any)["code"]; code != "parse_error" {
		t.Fatalf("parse failure code = %v, want parse_error", code)
	}

	// Application failure (unknown document): 422 mutation_error, and the
	// failed batch left no WAL record.
	resp, out = postMutate(t, ts.URL, `drop graph G in doc("nope");`)
	if resp.StatusCode != 422 {
		t.Fatalf("apply failure status = %d, want 422", resp.StatusCode)
	}
	eb := out["error"].(map[string]any)
	if eb["code"] != "mutation_error" {
		t.Fatalf("apply failure code = %v, want mutation_error", eb["code"])
	}
	if !strings.Contains(eb["message"].(string), "unknown document") {
		t.Fatalf("apply failure message = %v", eb["message"])
	}
	if recs := d.WALRecords(); recs != 1 {
		t.Fatalf("failed batch reached the WAL: %d records", recs)
	}

	// A query program down the write path: rejected, not executed.
	resp, out = postMutate(t, ts.URL, q)
	if resp.StatusCode != 422 {
		t.Fatalf("query-on-mutate status = %d, want 422", resp.StatusCode)
	}
}

// durableServer opens a durable store in dir, bootstrapped with document
// "db" (graph G, one A node), and serves it with the write surface mounted.
func durableServer(t *testing.T, dir string) (*store.DocStore, *httptest.Server) {
	t.Helper()
	d, err := store.OpenDurable(store.Options{Shards: 2}, store.DurableOptions{
		Dir: dir, Sync: true,
		Bootstrap: func(s *store.DocStore) error {
			if _, ok := s.Snapshot().Doc("db"); ok {
				return nil
			}
			g := graph.New("G")
			g.AddNode("a", graph.TupleOf("", "label", "A"))
			_, err := s.RegisterDoc("db", graph.Collection{g})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, httptest.NewServer(New(Config{
		Engine:    exec.NewOver(d),
		Timeout:   10 * time.Second,
		AccessLog: func(AccessRecord) {},
		Admin:     true,
	}))
}

// TestAdminDocDurable: a runtime /admin/doc registration on a durable
// server is WAL-logged like a mutation batch, so a later /v2/mutate on the
// new document and a restart both work and the document survives. Once
// the log is closed, a registration fails and the endpoint never says 200.
func TestAdminDocDurable(t *testing.T) {
	dir := t.TempDir()
	d, ts := durableServer(t, dir)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/admin/doc?name=reg", "text/plain",
		strings.NewReader(`graph R { node r <label="A">; };`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/admin/doc status = %d, want 200", resp.StatusCode)
	}
	if resp, out := postMutate(t, ts.URL, `insert node s <label="B"> into R in doc("reg");`); resp.StatusCode != 200 {
		t.Fatalf("mutate after /admin/doc: status %d, body %v", resp.StatusCode, out)
	}
	d.Close()

	resp, err = http.Post(ts.URL+"/admin/doc?name=late", "text/plain",
		strings.NewReader(`graph L { node l; };`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Fatalf("/admin/doc on a closed WAL: status %d, want 422", resp.StatusCode)
	}

	d2, ts2 := durableServer(t, dir)
	defer d2.Close()
	ts2.Close()
	doc, ok := d2.Snapshot().Doc("reg")
	if !ok {
		t.Fatal("document registered over /admin/doc lost on reopen")
	}
	if n := doc.Collection()[0].NumNodes(); n != 2 {
		t.Fatalf("reopened document has %d nodes, want 2 (registration + mutation)", n)
	}
	if _, ok := d2.Snapshot().Doc("late"); ok {
		t.Fatal("a failed registration reached the log")
	}
}

// TestMutateV2RequiresAdmin: without Config.Admin the write surface is not
// mounted at all.
func TestMutateV2RequiresAdmin(t *testing.T) {
	_, ts := newV2Server(t, manyAuthors(3), 1, nil)
	resp, err := http.Post(ts.URL+"/v2/mutate", "text/plain",
		strings.NewReader(`drop graph G0 in doc("DBLP");`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unmounted mutate status = %d, want 404", resp.StatusCode)
	}
}

// TestMutateV2Envelope: the JSON envelope form works and carries the
// timeout override field without disturbing the program.
func TestMutateV2Envelope(t *testing.T) {
	ds := store.New(store.Options{Shards: 1})
	g := graph.New("G")
	g.AddNode("a", graph.TupleOf("", "label", "A"))
	ds.RegisterDoc("db", graph.Collection{g})
	cfg := Config{
		Engine:    exec.NewOver(ds),
		Timeout:   10 * time.Second,
		AccessLog: func(AccessRecord) {},
		Admin:     true,
	}
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()

	env, _ := json.Marshal(map[string]any{
		"query":      `insert node b into G in doc("db");`,
		"timeout_ms": 5000,
	})
	resp, err := http.Post(ts.URL+"/v2/mutate", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || out["nodes_added"] != 1.0 {
		t.Fatalf("envelope mutate: status %d, body %v", resp.StatusCode, out)
	}
}
