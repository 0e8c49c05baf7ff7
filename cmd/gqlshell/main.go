// Command gqlshell runs GraphQL programs (§3.4 FLWR syntax) against graph
// documents.
//
// Usage:
//
//	gqlshell -doc name=file.tsv [-doc name2=file2.gql] [query.gql]
//	gqlshell -doc DBLP=examples/queries/dblp.gql examples/queries/coauthors.gql
//
// Documents are loaded from TSV exchange files (a single large graph),
// .bin binary collections, or .gql text files (a sequence of graph
// literals forming a collection). The query is read from the argument file
// or stdin. Graphs produced by return clauses and the final values of
// graph variables are printed in the language's text syntax.
//
// Observability: a query beginning with the word EXPLAIN runs with tracing
// enabled and prints the evaluation span tree (per-operator wall time,
// fan-out, candidate/pruning counts and search-space reduction ratios)
// instead of the result graphs; PROFILE prints the results *and* the trace
// plus a Prometheus-style dump of the process metrics. The -workers,
// -slow and -metrics flags configure the engine fan-out, the slow-query
// log threshold and an unconditional metrics dump.
//
// Storage: -shards partitions every document into N hash shards, each
// filtered by its own path index before one selection pass over the
// document (output is byte-identical to the unsharded scan); -index-paths
// builds a per-shard path-feature index of the given maximum length at
// load; -cache enables
// an N-entry LRU result cache keyed on (canonical program, store
// version) — mostly useful when piping several identical programs
// through one shell invocation.
//
// Mutations: a program consisting solely of mutation statements (create
// graph / drop graph / insert node / insert edge / delete node / delete
// edge) is applied as one all-or-nothing batch and prints a commit
// summary instead of result rows. -wal DIR makes those writes durable:
// the batch is fsynced into a write-ahead log under DIR before the
// summary prints, and the next invocation pointing at the same DIR
// replays checkpoint + log over the -doc bootstrap, so mutations persist
// across runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"gqldb/internal/ast"
	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/parser"
	"gqldb/internal/stats"
	"gqldb/internal/store"
)

func main() {
	docs := store.DocFlags{}
	flag.Var(docs, "doc", "document binding name=path (repeatable; .tsv, .bin or .gql)")
	verbose := flag.Bool("v", false, "verbose: print matched-variable summary")
	workers := flag.Int("workers", 0, "for-clause fan-out (0/1 serial, negative GOMAXPROCS)")
	slow := flag.Duration("slow", 0, "slow-query log threshold (0 disables; e.g. 100ms)")
	metrics := flag.Bool("metrics", false, "dump process metrics (Prometheus text format) after the run")
	shards := flag.Int("shards", 1, "hash partitions per document (each shard filters on its own path index)")
	cache := flag.Int("cache", 0, "result cache capacity in entries (0 disables; single-shot runs rarely benefit)")
	planCache := flag.Int("plan-cache", 0, "search-plan cache capacity in entries (0 disables; pays off when one program repeats a pattern)")
	indexLen := flag.Int("index-paths", 0, "per-shard path-feature index max length (0 disables)")
	walDir := flag.String("wal", "", "durability directory; mutation programs append to a write-ahead log there and replay on the next run")
	walSync := flag.Bool("wal-sync", true, "fsync the WAL before acknowledging each mutation batch")
	flag.Parse()

	// Document bootstrap, shared by the plain and durable stores; silent, so
	// only results reach the terminal.
	bootstrap := store.BootstrapFiles(docs, func(string, ...any) {})

	// With -wal the store is durable: this run starts from the previous
	// run's mutations (checkpoint + WAL replay over the -doc bootstrap) and
	// its own mutation programs are fsynced into the log before the summary
	// prints.
	sopts := store.Options{Shards: *shards, IndexMaxLen: *indexLen}
	st := store.New(sopts)
	if *walDir != "" {
		var err error
		st, err = store.OpenDurable(sopts, store.DurableOptions{
			Dir: *walDir, Sync: *walSync, Bootstrap: bootstrap,
		})
		if err != nil {
			fail("opening durable store: %v", err)
		}
	} else if err := bootstrap(st); err != nil {
		fail("%v", err)
	}
	defer st.Close()

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fail("reading query: %v", err)
	}

	mode, query := splitDirective(string(src))

	e := exec.NewOver(st)
	if *cache > 0 {
		e.Cache = store.NewCache(*cache)
	}
	if *planCache > 0 {
		e.Plans = match.NewPlanCache(*planCache)
	}
	e.Workers = *workers
	e.SlowQuery = *slow
	e.SlowQueryLog = func(r obs.SlowQueryRecord) { fmt.Fprintf(os.Stderr, "gqlshell: %s\n", r) }
	e.Trace = mode != ""

	// A program consisting solely of mutation statements routes down the
	// write path: one all-or-nothing batch, a printed summary instead of
	// result rows, and (under -wal) WAL durability before the summary.
	if prog, perr := parser.Parse(query); perr == nil && ast.IsMutationProgram(prog) {
		sum, err := e.Mutate(context.Background(), query)
		if err != nil {
			fail("%v", err)
		}
		printMutationSummary(sum)
		return
	}

	// StreamQuery owns parsing (the parse phase is a child span of the
	// traced run) and the result cache; result graphs print as the pipeline
	// emits them, so the first rows of a long-running program appear before
	// the selection finishes.
	sink := &printSink{quiet: mode == "explain"}
	res, err := e.StreamQuery(context.Background(), query, sink, exec.StreamOptions{Take: exec.AllRows})
	if err != nil {
		fail("%v", err)
	}

	if mode != "explain" {
		names := make([]string, 0, len(res.Vars))
		for name := range res.Vars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("// variable %s\n%s;\n", name, res.Vars[name])
		}
	}
	if mode != "" {
		renderTrace(os.Stdout, res)
	}
	if mode == "profile" || *metrics {
		fmt.Println("// metrics")
		if err := obs.WritePrometheus(os.Stdout); err != nil {
			fail("writing metrics: %v", err)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "gqlshell: %d result graphs, %d variables\n", res.Rows, len(res.Vars))
	}
}

// printMutationSummary prints a mutation batch's commit summary as one
// comment line per non-zero counter.
func printMutationSummary(sum *exec.MutationSummary) {
	fmt.Printf("// applied %d mutation(s) at version %d\n", sum.Mutations, sum.Version)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"graphs created", sum.GraphsCreated},
		{"graphs dropped", sum.GraphsDropped},
		{"nodes added", sum.NodesAdded},
		{"edges added", sum.EdgesAdded},
		{"nodes deleted", sum.NodesDeleted},
		{"edges deleted", sum.EdgesDeleted},
	} {
		if c.n > 0 {
			fmt.Printf("//   %s: %d\n", c.name, c.n)
		}
	}
}

// printSink streams result graphs to stdout as the engine emits them
// (suppressed in explain mode, which only wants the trace).
type printSink struct {
	quiet bool
	n     int
}

func (s *printSink) Emit(g *graph.Graph) error {
	if !s.quiet {
		fmt.Printf("// result %d\n%s;\n", s.n, g)
	}
	s.n++
	return nil
}

// splitDirective strips a leading EXPLAIN or PROFILE keyword (case-
// insensitive, delimited by whitespace) off the query text, returning the
// lowered mode ("" when absent) and the remaining program source.
func splitDirective(src string) (mode, rest string) {
	trimmed := strings.TrimLeftFunc(src, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	for _, kw := range []string{"explain", "profile"} {
		if len(trimmed) > len(kw) && strings.EqualFold(trimmed[:len(kw)], kw) {
			if c := trimmed[len(kw)]; c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				return kw, trimmed[len(kw)+1:]
			}
		}
	}
	return "", src
}

// renderTrace prints the span tree, the per-operator table (from the
// engine's OpStat records) and the per-selection reduction table computed
// from the span counters, reusing the §5 harness formatting helpers.
func renderTrace(w io.Writer, res *exec.StreamResult) {
	fmt.Fprintln(w, "// trace")
	fmt.Fprint(w, res.Trace.Render())

	if res.Stats != nil && len(res.Stats.Ops) > 0 {
		t := &stats.Table{
			Title:   "// operators",
			Headers: []string{"op", "items", "workers", "wall_ms"},
		}
		for _, op := range res.Stats.Ops {
			t.AddRow(op.Op, fmt.Sprint(op.Items), fmt.Sprint(op.Workers),
				stats.FmtMs(float64(op.Wall)/float64(time.Millisecond)))
		}
		fmt.Fprint(w, t.Format())
	}

	sel := &stats.Table{
		Title:   "// selection search space",
		Headers: []string{"pattern", "indexed", "gate_rejected", "baseline", "local", "refined", "matches", "reduction"},
	}
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		if sp.Name != "selection" {
			return
		}
		name := "?"
		for _, a := range sp.Attrs() {
			if a.Key == "pattern" {
				name = a.Val
			}
		}
		base, local := sp.Count("cand_baseline"), sp.Count("cand_local")
		refined := sp.Count("cand_refined")
		sel.AddRow(name, fmt.Sprint(sp.Count("indexed")), fmt.Sprint(sp.Count("graph_gate_rejected")), fmt.Sprint(base), fmt.Sprint(local), fmt.Sprint(refined),
			fmt.Sprint(sp.Count("matches")), reductionCell(refined, base))
	})
	if len(sel.Rows) > 0 {
		fmt.Fprint(w, sel.Format())
	}

	// Plan-cache effectiveness, when plan caching ran: per-selection hit and
	// miss counts against the engine's plan cache.
	pc := &stats.Table{
		Title:   "// plan cache",
		Headers: []string{"pattern", "hits", "misses"},
	}
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		if sp.Name != "selection" {
			return
		}
		hits, misses := sp.Count("plan_cache_hits"), sp.Count("plan_cache_misses")
		if hits == 0 && misses == 0 {
			return
		}
		name := "?"
		for _, a := range sp.Attrs() {
			if a.Key == "pattern" {
				name = a.Val
			}
		}
		pc.AddRow(name, fmt.Sprint(hits), fmt.Sprint(misses))
	})
	if len(pc.Rows) > 0 {
		fmt.Fprint(w, pc.Format())
	}

	// Remote shard fan-out, when a cluster selector served the query: one
	// row per shard RPC (the coordinator's shard-rpc child spans), showing
	// which endpoint answered and whether retries, hedging, a resync or
	// allow-partial degradation were involved.
	sh := &stats.Table{
		Title:   "// shards",
		Headers: []string{"shard", "endpoint", "attempts", "wall_ms", "flags"},
	}
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		if sp.Name != "shard-rpc" {
			return
		}
		endpoint := "?"
		for _, a := range sp.Attrs() {
			if a.Key == "endpoint" {
				endpoint = a.Val
			}
		}
		var flags []string
		if sp.Count("hedged") > 0 {
			flags = append(flags, "hedged")
		}
		if sp.Count("hedge_won") > 0 {
			flags = append(flags, "hedge-won")
		}
		if sp.Count("resynced") > 0 {
			flags = append(flags, "resynced")
		}
		if sp.Count("degraded") > 0 {
			flags = append(flags, "degraded")
		}
		sh.AddRow(fmt.Sprint(sp.Count("shard")), endpoint,
			fmt.Sprint(sp.Count("attempts")),
			stats.FmtMs(float64(sp.Count("wall_us"))/1000), strings.Join(flags, ","))
	})
	if len(sh.Rows) > 0 {
		fmt.Fprint(w, sh.Format())
	}
}

// reductionCell renders the candidate-count reduction refined/baseline in
// the figures' log scale (stats.ReductionRatioLog10 over log10 counts).
func reductionCell(refined, baseline int64) string {
	switch {
	case baseline == 0:
		return "n/a"
	case refined == 0:
		return "empty"
	}
	return stats.FmtLog(stats.ReductionRatioLog10(
		math.Log10(float64(refined)), math.Log10(float64(baseline))))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gqlshell: "+format+"\n", args...)
	os.Exit(1)
}
