package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	gexec "gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/parser"
	"gqldb/internal/store"
)

// TestServerBlackBox builds cmd/gqlserver, starts it on a random port with
// documents loaded from disk, and drives the full production surface over
// real HTTP: /query results byte-identical to the embedded engine,
// /explain, /metrics with the per-worker pool counters, /healthz,
// admission overload → 429, a per-request deadline → JSON timeout, and a
// SIGTERM drain that lets the in-flight query finish and exits 0 inside
// the grace period. This is the `make test-server` gate.
func TestServerBlackBox(t *testing.T) {
	if runtimeOS := os.Getenv("GOOS"); runtimeOS != "" && runtimeOS != "linux" && runtimeOS != "darwin" {
		t.Skipf("signal-driven drain test not supported on GOOS=%s", runtimeOS)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gqlserver")
	build := exec.Command("go", "build", "-o", bin, "gqldb/cmd/gqlserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gqlserver: %v\n%s", err, out)
	}

	// Documents go to disk in the language's text syntax and come back
	// through the server's startup loader.
	writeDoc := func(name string, coll []fmt.Stringer) string {
		var b strings.Builder
		for _, g := range coll {
			fmt.Fprintf(&b, "%s;\n", g)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var small, big []fmt.Stringer
	for _, g := range dblp() {
		small = append(small, g)
	}
	for _, g := range bigClique(30) {
		big = append(big, g)
	}
	smallPath := writeDoc("small.gql", small)
	bigPath := writeDoc("big.gql", big)

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-doc", "DBLP="+smallPath,
		"-doc", "BIG="+bigPath,
		"-max-inflight", "1",
		"-grace", "10s",
		"-timeout", "10s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The listen address is announced on stderr; keep draining the pipe
	// afterwards so logging never blocks the server.
	addrRE := regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)
	addrc := make(chan string, 1)
	logc := make(chan string, 1)
	go func() {
		var logs strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logs.WriteString(line + "\n")
			if m := addrRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		logc <- logs.String()
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("server did not announce its listen address")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}
	post := func(req queryRequest) (int, http.Header, string) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /query: %v", err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header, b.String()
	}

	// Liveness and loaded documents.
	status, body := get("/healthz")
	if status != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", status, body)
	}
	if !strings.Contains(body, "BIG") || !strings.Contains(body, "DBLP") {
		t.Fatalf("healthz docs missing: %s", body)
	}

	// Results must be byte-identical to the embedded engine over the same
	// documents.
	prog, err := parser.Parse(authorsQuery)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gexec.NewOver(store.FromMap(map[string]graph.Collection{"DBLP": dblp()})).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(oracle.Out))
	for i, g := range oracle.Out {
		want[i] = g.String()
	}
	status, _, body = post(queryRequest{Query: authorsQuery})
	if status != 200 {
		t.Fatalf("query = %d %s", status, body)
	}
	var qr queryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(qr.Results) != fmt.Sprint(want) {
		t.Fatalf("HTTP results diverge from embedded engine:\n got %v\nwant %v", qr.Results, want)
	}

	// Explain over HTTP returns the span tree.
	ebody, _ := json.Marshal(queryRequest{Query: authorsQuery, Workers: 2})
	eresp, err := http.Post(base+"/explain", "application/json", bytes.NewReader(ebody))
	if err != nil {
		t.Fatal(err)
	}
	var ebuf bytes.Buffer
	ebuf.ReadFrom(eresp.Body)
	eresp.Body.Close()
	if eresp.StatusCode != 200 || !strings.Contains(ebuf.String(), `"name":"query"`) ||
		!strings.Contains(ebuf.String(), "selection") {
		t.Fatalf("explain = %d %s", eresp.StatusCode, ebuf.String())
	}

	// Metrics include the registry dump and the per-worker pool counters.
	status, body = get("/metrics")
	if status != 200 {
		t.Fatalf("metrics = %d", status)
	}
	for _, frag := range []string{"gqldb_queries_total", "gqldb_http_requests_total",
		`gqldb_pool_worker_items_total{worker="0"}`} {
		if !strings.Contains(body, frag) {
			t.Fatalf("/metrics missing %q:\n%s", frag, body)
		}
	}
	if status, body = get("/debug/vars"); status != 200 || !strings.Contains(body, "gqldb") {
		t.Fatalf("/debug/vars = %d %s", status, body)
	}

	// A tiny per-request deadline yields a JSON timeout error, not a hung
	// connection.
	status, _, body = post(queryRequest{Query: pathQuery, TimeoutMS: 50})
	if status != http.StatusGatewayTimeout || !strings.Contains(body, `"code":"timeout"`) {
		t.Fatalf("deadline = %d %s", status, body)
	}

	// Overload: pin the single admission slot, then the next query is
	// rejected 429 with Retry-After.
	// The pinned query's own deadline (1.5s) must land well inside the
	// drain grace (10s) even on a loaded machine — `make race` runs other
	// packages' stress tests concurrently with this one.
	pinned := make(chan string, 1)
	go func() {
		_, _, b := post(queryRequest{Query: pathQuery, TimeoutMS: 1500})
		pinned <- b
	}()
	waitForInflight := func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			_, h := get("/healthz")
			if strings.Contains(h, `"inflight":1`) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("pinned query never admitted")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitForInflight()
	status, hdr, body := post(queryRequest{Query: authorsQuery})
	if status != http.StatusTooManyRequests || !strings.Contains(body, `"code":"overloaded"`) {
		t.Fatalf("overload = %d %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	// SIGTERM with the query still in flight: the server must drain it
	// (here: let it run to its own deadline), flush metrics, and exit 0
	// within the grace period.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-pinned:
		if !strings.Contains(b, `"code":"timeout"`) && !strings.Contains(b, `"code":"canceled"`) {
			t.Fatalf("pinned query response during drain: %s", b)
		}
	case <-time.After(12 * time.Second):
		t.Fatal("pinned query got no response during drain")
	}
	// Await the scanner's EOF before cmd.Wait: Wait tears down the stderr
	// pipe, and calling it while the scanner still drains can discard the
	// buffered tail of the log — exactly where the drain markers live. EOF
	// arrives at process exit, so this doubles as the exit wait.
	var logs string
	select {
	case logs = <-logc:
	case <-time.After(12 * time.Second):
		t.Fatal("gqlserver did not exit within the grace period")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gqlserver exited non-zero: %v\nserver logs:\n%s", err, logs)
	}
	for _, frag := range []string{"draining", "final metrics snapshot", "gqldb_queries_total", "drained cleanly"} {
		if !strings.Contains(logs, frag) {
			t.Errorf("server log missing %q:\n%s", frag, logs)
		}
	}
}
