// Package cluster_test is the `make test-cluster` gate: a black-box test
// of the distributed read path over real processes. It builds cmd/gqlshard
// and cmd/gqlserver, starts a three-mirror shard cluster plus a frontend on
// random ports, and asserts the documented cluster semantics end to end:
// byte-identical answers versus an engine-free reference, the version handshake
// resyncing mirrors after an /admin/doc push, retry rotation surviving a
// shard killed mid-stream, an empty restarted mirror converging on first
// contact, the fail-mode and allow-partial frontends, the shard counters on
// /metrics, and a clean SIGTERM drain of every process.
package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
)

// clusterQuery is the workload: the A—B edge pattern, exhaustively, with a
// graph-constructing return clause — every shard contributes matches and
// the merged output order is observable.
const clusterQuery = `
graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };
for P exhaustive in doc("db")
return graph { node P.v1; node P.v2; edge (P.v1, P.v2); };
`

// labeledCollection generates the deterministic test corpus (same scheme as
// the store package's fixtures: small random graphs over labels A..C).
func labeledCollection(n int, seed int64) graph.Collection {
	rng := rand.New(rand.NewSource(seed))
	var c graph.Collection
	for i := 0; i < n; i++ {
		g := graph.New(fmt.Sprintf("g%d", i))
		k := 3 + rng.Intn(4)
		for j := 0; j < k; j++ {
			g.AddNode("", graph.TupleOf("", "label", string(rune('A'+rng.Intn(3)))))
		}
		for j := 0; j < 2*k; j++ {
			u, v := rng.Intn(k), rng.Intn(k)
			if u != v {
				g.AddEdge("", graph.NodeID(u), graph.NodeID(v), nil)
			}
		}
		c = append(c, g)
	}
	return c
}

// proc is one managed cluster process: the command, its announced listen
// address, and the accumulated stderr log (complete once the process
// exits).
type proc struct {
	cmd  *exec.Cmd
	addr string
	logc chan string
}

var addrRE = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// startProc launches a binary, scrapes the announced listen address off
// stderr, and keeps draining the pipe so logging never blocks the process.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	p := &proc{cmd: cmd, logc: make(chan string, 1)}
	addrc := make(chan string, 1)
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
		p.logc <- logs.String()
	}()
	select {
	case p.addr = <-addrc:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not announce its listen address", filepath.Base(bin))
	}
	return p
}

// sigterm drains the process and asserts a clean exit inside the grace
// period, returning the full stderr log. The scanner's EOF is awaited
// before cmd.Wait: Wait tears down the stderr pipe, and calling it while
// the scanner still drains can discard the buffered tail of the log (the
// drain markers live exactly there). EOF arrives at process exit, so the
// wait-for-logs doubles as the exit wait.
func (p *proc) sigterm(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var logs string
	select {
	case logs = <-p.logc:
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not exit within the grace period", p.cmd.Path)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s exited non-zero: %v\nlogs:\n%s", p.cmd.Path, err, logs)
	}
	return logs
}

func TestClusterBlackBox(t *testing.T) {
	if runtimeOS := os.Getenv("GOOS"); runtimeOS != "" && runtimeOS != "linux" && runtimeOS != "darwin" {
		t.Skipf("signal-driven drain test not supported on GOOS=%s", runtimeOS)
	}
	dir := t.TempDir()
	shardBin := filepath.Join(dir, "gqlshard")
	serverBin := filepath.Join(dir, "gqlserver")
	for _, b := range []struct{ out, pkg string }{
		{shardBin, "gqldb/cmd/gqlshard"},
		{serverBin, "gqldb/cmd/gqlserver"},
	} {
		if out, err := exec.Command("go", "build", "-o", b.out, b.pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}

	// The corpus goes to disk in the language's text syntax and comes back
	// through each process's startup loader — content-hash identity must
	// survive independent loading.
	writeDoc := func(name string, coll graph.Collection) string {
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
	collA := labeledCollection(40, 3)
	docPath := writeDoc("db.gql", collA)

	// Three mirrors, every one partitioned at the frontend's width.
	const width = "3"
	shardArgs := func() []string {
		return []string{"-addr", "127.0.0.1:0", "-shards", width, "-doc", "db=" + docPath}
	}
	mirrors := make([]*proc, 3)
	var selectorArgs []string
	for i := range mirrors {
		mirrors[i] = startProc(t, shardBin, shardArgs()...)
		selectorArgs = append(selectorArgs, "-selector", "http://"+mirrors[i].addr)
	}

	frontend := startProc(t, serverBin, append(selectorArgs,
		"-addr", "127.0.0.1:0",
		"-doc", "db="+docPath,
		"-shards", width,
		"-shard-retries", "2",
		"-shard-probe-interval", "100ms",
		"-admin",
		"-grace", "10s")...)
	base := "http://" + frontend.addr

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
	// query is also called from a goroutine during the mid-kill phase, so
	// transport failures come back as status 0 instead of a t.Fatal.
	query := func(against string) (int, string) {
		body, _ := json.Marshal(map[string]any{"query": clusterQuery})
		resp, err := http.Post(against+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Sprintf("POST /query: %v", err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}
	// results parses the /query success shape into the rendered graphs.
	results := func(body string) []string {
		var out struct {
			Results []string `json:"results"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("decoding query response: %v\n%s", err, body)
		}
		return out.Results
	}
	// oracle evaluates clusterQuery without the engine: a plain loop over the
	// collection with match.Find, then the return template once per binding.
	// It shares nothing with the selection kernel, the coordinator or the wire.
	oracle := func(coll graph.Collection) []string {
		prog, err := parser.Parse(clusterQuery)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prog.Stmts[0].(*ast.GraphDecl).ToPattern()
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := prog.Stmts[1].(*ast.FLWRStmt).Return.ToTemplate()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, g := range coll {
			maps, _, err := match.Find(p, g, nil, match.Options{Exhaustive: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range maps {
				row, err := tmpl.Instantiate(map[string]algebra.Operand{
					p.Name: algebra.MatchedOperand(&algebra.MatchedGraph{P: p, G: g, M: m}),
				})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, row.String())
			}
		}
		return want
	}
	metric := func(name string) float64 {
		_, body := get("/metrics")
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v float64
				fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v)
				return v
			}
		}
		return 0
	}

	// Cluster answers are byte-identical to the reference.
	want := oracle(collA)
	if len(want) == 0 {
		t.Fatal("degenerate corpus: the oracle found no matches")
	}
	status, body := query(base)
	if status != 200 {
		t.Fatalf("query = %d %s", status, body)
	}
	if got := results(body); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cluster diverged from embedded engine:\n got %v\nwant %v", got, want)
	}
	if rpcs := metric("gqldb_shard_rpcs_total"); rpcs < 3 {
		t.Fatalf("gqldb_shard_rpcs_total = %v after a 3-shard query", rpcs)
	}

	// The frontend's health view includes the probed shard endpoints.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, hb := get("/healthz")
		if strings.Count(hb, `"healthy":true`) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard endpoints never probed healthy: %s", hb)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// /admin/doc replaces the document on the frontend only; mirrors are now
	// stale and must resync through the version handshake mid-query.
	collB := labeledCollection(25, 11)
	var push strings.Builder
	for _, g := range collB {
		fmt.Fprintf(&push, "%s;\n", g)
	}
	resp, err := http.Post(base+"/admin/doc?name=db", "text/plain", strings.NewReader(push.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/admin/doc = %d", resp.StatusCode)
	}
	want = oracle(collB)
	status, body = query(base)
	if status != 200 {
		t.Fatalf("post-push query = %d %s", status, body)
	}
	if got := results(body); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-push cluster diverged:\n got %v\nwant %v", got, want)
	}
	if n := metric("gqldb_shard_resyncs_total"); n < 1 {
		t.Fatalf("gqldb_shard_resyncs_total = %v after a stale-mirror query", n)
	}

	// Kill one mirror mid-stream: launch the query, then SIGKILL while it is
	// (or is about to be) in flight. Whatever the interleaving, the retry
	// rotation must land every shard on a live replica and the answer must
	// not change.
	resc := make(chan string, 1)
	go func() {
		_, b := query(base)
		resc <- b
	}()
	mirrors[0].cmd.Process.Kill()
	select {
	case b := <-resc:
		if got := results(b); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mid-kill cluster diverged:\n got %v\nwant %v", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query issued during the shard kill never returned")
	}
	status, body = query(base)
	if status != 200 {
		t.Fatalf("post-kill query = %d %s", status, body)
	}
	if got := results(body); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-kill cluster diverged:\n got %v\nwant %v", got, want)
	}
	if n := metric("gqldb_shard_retries_total"); n < 1 {
		t.Fatalf("gqldb_shard_retries_total = %v after querying past a dead mirror", n)
	}

	// Restart the killed mirror EMPTY: no -doc flag, so the first request it
	// serves must come back unknown_doc and the frontend must push the
	// current document before retrying.
	mirrors[0].cmd.Wait()
	restarted := startProc(t, shardBin, "-addr", mirrors[0].addr, "-shards", width)
	before := metric("gqldb_shard_resyncs_total")
	// Several queries: shard→endpoint rotation guarantees the restarted
	// mirror serves a primary slot, and retries cover the rest.
	for i := 0; i < 3; i++ {
		status, body = query(base)
		if status != 200 {
			t.Fatalf("post-restart query %d = %d %s", i, status, body)
		}
		if got := results(body); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("post-restart cluster diverged:\n got %v\nwant %v", got, want)
		}
	}
	if n := metric("gqldb_shard_resyncs_total"); n <= before {
		t.Fatalf("gqldb_shard_resyncs_total stuck at %v: the empty mirror never resynced", n)
	}

	// Fail mode: a frontend with no retry budget over a dead endpoint
	// reports the typed per-shard error, not a silent partial answer.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()
	failFE := startProc(t, serverBin,
		"-addr", "127.0.0.1:0",
		"-doc", "db="+docPath,
		"-shards", width,
		"-selector", "http://"+deadAddr,
		"-shard-retries", "0",
		"-shard-timeout", "2s")
	status, body = query("http://" + failFE.addr)
	if status != http.StatusBadGateway || !strings.Contains(body, `"code":"shard_error"`) {
		t.Fatalf("fail-mode query = %d %s, want 502 shard_error", status, body)
	}
	failFE.sigterm(t)

	// Allow-partial: the same dead cluster degrades to an empty answer.
	partialFE := startProc(t, serverBin,
		"-addr", "127.0.0.1:0",
		"-doc", "db="+docPath,
		"-shards", width,
		"-selector", "http://"+deadAddr,
		"-shard-retries", "0",
		"-shard-timeout", "2s",
		"-allow-partial")
	status, body = query("http://" + partialFE.addr)
	if status != 200 {
		t.Fatalf("allow-partial query = %d %s", status, body)
	}
	if got := results(body); len(got) != 0 {
		t.Fatalf("allow-partial answer has %d results, want 0 (cluster is dead)", len(got))
	}
	partialFE.sigterm(t)

	// Clean drain of the whole cluster: frontend first, then every mirror,
	// all exiting 0 inside their grace periods.
	logs := frontend.sigterm(t)
	if !strings.Contains(logs, "drained cleanly") {
		t.Errorf("frontend log missing clean-drain marker:\n%s", logs)
	}
	for _, m := range []*proc{mirrors[1], mirrors[2], restarted} {
		logs := m.sigterm(t)
		if !strings.Contains(logs, "drained cleanly") {
			t.Errorf("mirror log missing clean-drain marker:\n%s", logs)
		}
	}
}
