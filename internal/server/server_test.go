package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/parser"
	"gqldb/internal/store"
)

// dblp is the small collection of Figure 4.13.
func dblp() graph.Collection {
	g1 := graph.New("G1")
	g1.Attrs = graph.TupleOf("inproceedings", "booktitle", "SIGMOD")
	g1.AddNode("v1", graph.TupleOf("author", "name", "A"))
	g1.AddNode("v2", graph.TupleOf("author", "name", "B"))
	g2 := graph.New("G2")
	g2.Attrs = graph.TupleOf("inproceedings", "booktitle", "SIGMOD")
	g2.AddNode("v1", graph.TupleOf("author", "name", "C"))
	g2.AddNode("v2", graph.TupleOf("author", "name", "D"))
	g2.AddNode("v3", graph.TupleOf("author", "name", "A"))
	return graph.NewCollection(g1, g2)
}

// bigClique returns one complete graph on n same-tag nodes — the workload
// whose exhaustive path matching blows up combinatorially, used to pin a
// query in flight until its deadline fires.
func bigClique(n int) graph.Collection {
	g := graph.New("K")
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("v%d", i), graph.TupleOf("n"))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(fmt.Sprintf("e%d_%d", i, j), ids[i], ids[j], nil)
		}
	}
	return graph.NewCollection(g)
}

const authorsQuery = `for graph Q { node v1 <author>; } exhaustive in doc("DBLP")
return graph { node Q.v1; };`

// pathQuery explodes on bigClique: a 6-node path over one complete
// same-tag graph enumerates ~n^6 exhaustive mappings.
const pathQuery = `for graph Q {
	node v1 <n>; node v2 <n>; node v3 <n>; node v4 <n>; node v5 <n>; node v6 <n>;
	edge e1 (v1, v2); edge e2 (v2, v3); edge e3 (v3, v4); edge e4 (v4, v5); edge e5 (v5, v6);
} exhaustive in doc("BIG") return graph { node Q.v1; };`

// newTestServer builds a server over the test store; cfg tweaks apply on
// top of the test defaults.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	eng := exec.NewOver(store.FromMap(map[string]graph.Collection{"DBLP": dblp(), "BIG": bigClique(30)}))
	cfg := Config{
		Engine:    eng,
		Timeout:   10 * time.Second,
		AccessLog: func(AccessRecord) {}, // keep test output quiet
	}
	if mut != nil {
		mut(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts the envelope and decodes the response into out, returning
// the HTTP response for header/status checks.
func postJSON(t *testing.T, url string, req any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func TestQueryMatchesEmbeddedEngine(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// The embedded engine over the same store is the oracle: the HTTP
	// results must be byte-identical renderings in the same order.
	prog, err := parser.Parse(authorsQuery)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := exec.NewOver(store.FromMap(map[string]graph.Collection{"DBLP": dblp()})).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(oracle.Out))
	for i, g := range oracle.Out {
		want[i] = g.String()
	}
	if len(want) == 0 {
		t.Fatal("oracle produced no results")
	}

	// Raw-body form.
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(authorsQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("results = %d, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			t.Fatalf("result %d differs from embedded engine:\nhttp: %s\nwant: %s", i, got.Results[i], want[i])
		}
	}

	// JSON-envelope form with a worker override must be identical too.
	var enveloped queryResponse
	resp2 := postJSON(t, ts.URL+"/query", queryRequest{Query: authorsQuery, Workers: 4}, &enveloped)
	if resp2.StatusCode != 200 {
		t.Fatalf("enveloped status = %d", resp2.StatusCode)
	}
	if fmt.Sprint(enveloped.Results) != fmt.Sprint(got.Results) {
		t.Fatalf("parallel results differ:\n%v\n%v", enveloped.Results, got.Results)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBody = 256 })

	cases := []struct {
		name, body, ct string
		status         int
		code           string
	}{
		{"parse error", "for nonsense ;;;", "text/plain", 400, "parse_error"},
		{"eval error", `for graph Q { node v1 <author>; } in doc("NOPE") return graph { node Q.v1; };`, "text/plain", 422, "eval_error"},
		{"empty body", "", "text/plain", 400, "bad_request"},
		{"bad envelope", "{not json", "application/json", 400, "bad_request"},
		{"body too large", strings.Repeat("x", 300), "text/plain", 413, "body_too_large"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/query", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status || e.Error.Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q (%s)",
				tc.name, resp.StatusCode, e.Error.Code, tc.status, tc.code, e.Error.Message)
		}
	}

	// Wrong method on a query endpoint.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status = %d, want 405", resp.StatusCode)
	}
}

// failingBody is a request body whose read fails, as when a client drops
// the connection mid-upload.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestRequestBodyReadErrors: every endpoint that reads a body answers a
// body past the cap with 413 body_too_large and any other read failure
// with 400 bad_request (/admin/doc used to answer 413 for both).
func TestRequestBodyReadErrors(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBody = 256; c.Admin = true })
	for _, path := range []string{"/query", "/v2/batch", "/admin/doc?name=D"} {
		cases := []struct {
			body   io.Reader
			status int
			code   string
		}{
			{failingBody{}, 400, "bad_request"},
			{strings.NewReader(strings.Repeat("x", 300)), 413, "body_too_large"},
		}
		for _, tc := range cases {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, tc.body))
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s: response %q is not JSON: %v", path, rec.Body, err)
			}
			if rec.Code != tc.status || e.Error.Code != tc.code {
				t.Errorf("%s: status %d code %q, want %d %q (%s)",
					path, rec.Code, e.Error.Code, tc.status, tc.code, e.Error.Message)
			}
		}
	}
}

func TestQueryDeadlineProducesJSONTimeout(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var e errorResponse
	start := time.Now()
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: pathQuery, TimeoutMS: 40}, &e)
	if resp.StatusCode != http.StatusGatewayTimeout || e.Error.Code != "timeout" {
		t.Fatalf("status %d code %q (%s), want 504 timeout", resp.StatusCode, e.Error.Code, e.Error.Message)
	}
	// The response must arrive promptly after the deadline — a hung
	// connection would blow well past this bound.
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("timeout response took %v", wall)
	}
}

func TestAdmissionControl429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })

	// Pin the single admission slot with a query that runs until its
	// deadline.
	done := make(chan errorResponse, 1)
	go func() {
		var e errorResponse
		postJSON(t, ts.URL+"/query", queryRequest{Query: pathQuery, TimeoutMS: 5000}, &e)
		done <- e
	}()
	waitFor(t, time.Second, func() bool { return s.Inflight() == 1 })

	var e errorResponse
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: authorsQuery}, &e)
	if resp.StatusCode != http.StatusTooManyRequests || e.Error.Code != "overloaded" {
		t.Fatalf("status %d code %q, want 429 overloaded", resp.StatusCode, e.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	// Unwind the pinned query and confirm the slot frees.
	s.CancelInflight()
	pinned := <-done
	if pinned.Error.Code != "canceled" {
		t.Fatalf("pinned query code = %q, want canceled", pinned.Error.Code)
	}
	waitFor(t, time.Second, func() bool { return s.Inflight() == 0 })
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExplainReturnsTraceAndOperators(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var out explainResponse
	resp := postJSON(t, ts.URL+"/explain", queryRequest{Query: authorsQuery, Workers: 2}, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Trace == nil || out.Trace.Name != "query" {
		t.Fatalf("trace root = %+v", out.Trace)
	}
	var names []string
	var walk func(spanJSON)
	walk = func(s spanJSON) {
		names = append(names, s.Name)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(*out.Trace)
	joined := strings.Join(names, " ")
	for _, phase := range []string{"flwr", "selection", "return-fanout"} {
		if !strings.Contains(joined, phase) {
			t.Errorf("trace missing %s span in %v", phase, names)
		}
	}
	if !strings.Contains(out.Render, "query") {
		t.Fatalf("render missing root: %q", out.Render)
	}
	if len(out.Operators) == 0 {
		t.Fatal("no per-operator records")
	}
	if out.Results != 5 {
		t.Fatalf("results = %d, want 5", out.Results)
	}
}

func TestHealthzAndDrainState(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != 200 || h.Status != "ok" || h.Inflight != 0 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	if fmt.Sprint(h.Docs) != "[BIG DBLP]" {
		t.Fatalf("docs = %v", h.Docs)
	}

	s.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v", resp.StatusCode, h)
	}

	// New queries are rejected once draining.
	var e errorResponse
	qresp := postJSON(t, ts.URL+"/query", queryRequest{Query: authorsQuery}, &e)
	if qresp.StatusCode != http.StatusServiceUnavailable || e.Error.Code != "draining" {
		t.Fatalf("query while draining = %d %q", qresp.StatusCode, e.Error.Code)
	}
}

func TestMetricsAndDebugVars(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Drive one query so the pool's per-worker utilization counters have
	// moved in this process.
	var out queryResponse
	if resp := postJSON(t, ts.URL+"/query", queryRequest{Query: authorsQuery, Workers: 2}, &out); resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, frag := range []string{
		"gqldb_queries_total",
		"gqldb_http_requests_total",
		`gqldb_pool_worker_items_total{worker="0"}`,
		"gqldb_pool_worker_busy_seconds_total",
	} {
		if !strings.Contains(body.String(), frag) {
			t.Errorf("/metrics missing %q", frag)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "gqldb_queries_total") {
		t.Fatalf("/debug/vars missing gqldb snapshot: %s", body.String())
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.wrap("/boom", func(w *statusWriter, r *http.Request) { panic("kaboom") })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error.Code != "internal" {
		t.Fatalf("body = %s (err %v)", rr.Body.String(), err)
	}
}

func TestAccessLogRecords(t *testing.T) {
	// The access log fires from the server's handler goroutine after the
	// response is written, so reads synchronize through the mutex and wait.
	var mu sync.Mutex
	var recs []AccessRecord
	_, ts := newTestServer(t, func(c *Config) {
		c.AccessLog = func(r AccessRecord) {
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		}
	})
	var out queryResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: authorsQuery}, &out)
	var e errorResponse
	postJSON(t, ts.URL+"/query", queryRequest{Query: "syntax! error!"}, &e)
	waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recs) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if recs[0].Status != 200 || recs[0].Code != "" || recs[0].Bytes == 0 || recs[0].Path != "/query" {
		t.Fatalf("success record = %+v", recs[0])
	}
	if recs[1].Status != 400 || recs[1].Code != "parse_error" {
		t.Fatalf("error record = %+v", recs[1])
	}
	line := recs[1].String()
	if !strings.Contains(line, "status=400") || !strings.Contains(line, "code=parse_error") {
		t.Fatalf("log line = %q", line)
	}
}

func TestDrainStateMachine(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// An idle server drains cleanly within the grace period and flushes the
	// final snapshot.
	flushed := false
	hs := &http.Server{}
	// httptest owns the listener; Drain against a fresh http.Server still
	// exercises StartDrain + flush ordering.
	if err := s.Drain(hs, time.Second, func() error { flushed = true; return nil }); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if !flushed {
		t.Fatal("final metrics snapshot not flushed")
	}
	if !s.Draining() {
		t.Fatal("server not marked draining")
	}
	_ = ts
}
