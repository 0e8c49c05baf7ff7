// Command gqlserver serves GraphQL (He & Singh) queries over HTTP: the
// production frontend over the embedded query engine.
//
// Usage:
//
//	gqlserver -addr :8080 -doc name=file.tsv [-doc name2=file2.gql] \
//	    [-workers N] [-max-inflight N] [-timeout 30s] [-max-body 1048576] \
//	    [-grace 10s] [-slow 100ms] [-shards N] [-cache N] [-index-paths L] \
//	    [-flush-interval 100ms] [-max-take N] \
//	    [-selector http://host:port ...] [-shard-timeout 10s] \
//	    [-shard-retries 2] [-shard-hedge-after 30ms] [-allow-partial] \
//	    [-admin] [-wal DIR] [-wal-sync] [-checkpoint-every N]
//
// -selector (repeatable) turns the process into a cluster frontend:
// selection fans out to the listed gqlshard endpoints over the store wire
// protocol instead of evaluating in-process, with per-attempt timeouts
// (-shard-timeout), bounded retry rotation across replicas
// (-shard-retries), optional hedging (-shard-hedge-after) and explicit
// degradation (-allow-partial). Every endpoint's health is probed in the
// background and reported on /healthz. -admin mounts the write surface
// (POST /admin/doc for runtime document registration, POST /v2/mutate for
// mutation programs — trusted operators only).
//
// -wal DIR makes the store durable: mutation batches and /admin/doc
// registrations are fsynced into an append-only write-ahead log under DIR
// before they are acknowledged (-wal-sync=false trades that for speed), a
// checkpoint compacts the log every -checkpoint-every batches, and a
// restart replays checkpoint + log over the -doc bootstrap to reach the
// exact pre-crash store.
//
// -shards partitions every document into N hash shards: in process every
// shard runs its own filter and one selection pass covers the document
// (with -selector, each shard is one job on the wire); -index-paths builds
// a per-shard path-feature index of length L at registration; -cache enables
// an N-entry LRU result cache keyed on (program, store version), so
// repeated queries are served without re-evaluation until a document
// changes. -flush-interval paces the periodic flushes of streamed v2
// responses (a negative value flushes after every row); -max-take caps how
// many rows one v2 request may take — larger (or unlimited) requests are
// truncated at the cap and handed a next_skip cursor to resume from.
//
// Documents are loaded at startup from TSV exchange files (a single large
// graph), .bin binary collections, or .gql text files (a sequence of graph
// literals), exactly as in gqlshell. Endpoints:
//
//	POST /query    {"query": "...", "timeout_ms": 0, "workers": 0} or a raw
//	               program body; buffered JSON results (the frozen v1 shape)
//	POST /explain  same request shape; JSON span tree + per-operator table
//	POST /v2/query same envelope plus skip/take/project; streaming NDJSON
//	               rows with cursor pagination and per-row projection
//	POST /v2/batch {"queries": [...]}; several programs on one store
//	               snapshot, one NDJSON stream tagged by query index
//	GET  /v2/schema loaded docs, store version, attribute inventory
//	POST /v2/mutate apply a mutation program as one all-or-nothing batch
//	               (mounted under -admin; durable before 200 under -wal)
//	GET  /metrics  Prometheus text dump
//	GET  /debug/vars  expvar
//	GET  /healthz  liveness, drain state, in-flight count
//
// On SIGTERM/SIGINT the server drains: admission stops (new queries get
// 503, /healthz flips to 503 draining), in-flight queries get up to -grace
// to finish, stragglers are context-cancelled, a final metrics snapshot is
// written to stderr, and the process exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gqldb/internal/exec"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/server"
	"gqldb/internal/store"
	"time"
)

// endpointFlags collects repeated -selector URL flags.
type endpointFlags []string

func (e *endpointFlags) String() string { return strings.Join(*e, ",") }

func (e *endpointFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty endpoint")
	}
	*e = append(*e, v)
	return nil
}

func main() {
	docs := store.DocFlags{}
	flag.Var(docs, "doc", "document binding name=path (repeatable; .tsv, .bin or .gql)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "default for-clause fan-out (0/1 serial, negative GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "admitted-query limit; excess requests get 429 (0 = 2×GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeouts")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes; larger bodies get 413")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight queries")
	slow := flag.Duration("slow", 0, "slow-query log threshold (0 disables; e.g. 100ms)")
	shards := flag.Int("shards", 1, "hash partitions per document (each shard filters on its own path index; with -selector each is one wire job)")
	cache := flag.Int("cache", 0, "result cache capacity in entries (0 disables caching)")
	planCache := flag.Int("plan-cache", 0, "search-plan cache capacity in entries (0 disables plan caching)")
	indexLen := flag.Int("index-paths", 0, "per-shard path-feature index max length (0 disables; 3 is a good default for many small graphs)")
	flushInterval := flag.Duration("flush-interval", 100*time.Millisecond, "flush pacing for streamed v2 responses (negative flushes every row)")
	maxTake := flag.Int("max-take", 0, "cap on rows one v2 request may take (0 = uncapped); capped requests get a next_skip cursor")
	var selectors endpointFlags
	flag.Var(&selectors, "selector", "shard-server base URL (repeatable); selection fans out to the cluster instead of evaluating in-process")
	shardTimeout := flag.Duration("shard-timeout", 10*time.Second, "per-attempt timeout of one shard RPC")
	shardRetries := flag.Int("shard-retries", 2, "retry budget per shard beyond the first attempt (each retry rotates to the next replica)")
	hedgeAfter := flag.Duration("shard-hedge-after", 0, "fire a duplicate shard RPC at the next replica after this delay (0 disables hedging)")
	allowPartial := flag.Bool("allow-partial", false, "degrade a dead shard to an empty answer instead of failing the query")
	probeEvery := flag.Duration("shard-probe-interval", 5*time.Second, "background health-probe interval for shard endpoints (<= 0: probe once at startup, no background probing)")
	admin := flag.Bool("admin", false, "mount the mutating admin surface (POST /admin/doc, POST /v2/mutate)")
	walDir := flag.String("wal", "", "durability directory; mutations append to a write-ahead log there and replay on restart")
	walSync := flag.Bool("wal-sync", true, "fsync the WAL before acknowledging each mutation batch")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint the store and truncate the WAL every N batches (0 = default 256, negative disables)")
	flag.Parse()

	// With -wal the store is durable: startup replays the log over the
	// -doc bootstrap, and every /v2/mutate batch and /admin/doc
	// registration is fsynced into the WAL before the 200 leaves the
	// process.
	sopts := store.Options{Shards: *shards, IndexMaxLen: *indexLen}
	bootstrap := store.BootstrapFiles(docs, func(format string, args ...any) {
		log.Printf("gqlserver: "+format, args...)
	})
	st := store.New(sopts)
	if *walDir != "" {
		var err error
		st, err = store.OpenDurable(sopts, store.DurableOptions{
			Dir: *walDir, Sync: *walSync, CheckpointEvery: *checkpointEvery,
			Bootstrap: bootstrap,
		})
		if err != nil {
			fail("opening durable store: %v", err)
		}
		log.Printf("gqlserver: durable store at %s (version %d, %d WAL records)",
			*walDir, st.Version(), st.WALRecords())
	} else if err := bootstrap(st); err != nil {
		fail("%v", err)
	}
	defer st.Close()

	eng := exec.NewOver(st)
	if *cache > 0 {
		eng.Cache = store.NewCache(*cache)
	}
	if *planCache > 0 {
		eng.Plans = match.NewPlanCache(*planCache)
	}
	eng.Workers = *workers
	eng.SlowQuery = *slow
	eng.SlowQueryLog = func(r obs.SlowQueryRecord) { log.Printf("gqlserver: %s", r) }
	if len(selectors) > 0 {
		rs := store.NewRemoteSelector(selectors)
		rs.SetTimeout(*shardTimeout)
		rs.SetRetries(*shardRetries)
		rs.SetHedgeAfter(*hedgeAfter)
		rs.SetAllowPartial(*allowPartial)
		eng.Selector = rs
		stopProbe := rs.StartProbing(context.Background(), *probeEvery)
		defer stopProbe()
		log.Printf("gqlserver: routing selection to %d shard endpoint(s): %s",
			len(selectors), strings.Join(selectors, ", "))
	}

	srv := server.New(server.Config{
		Engine:        eng,
		MaxInflight:   *maxInflight,
		MaxBody:       *maxBody,
		Timeout:       *timeout,
		MaxTimeout:    *maxTimeout,
		FlushInterval: *flushInterval,
		MaxTake:       *maxTake,
		Admin:         *admin,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen %s: %v", *addr, err)
	}
	log.Printf("gqlserver: listening on %s", l.Addr())

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("gqlserver: received %v, draining (grace %v, %d in flight)", s, *grace, srv.Inflight())
		err := srv.Drain(hs, *grace, func() error {
			log.Printf("gqlserver: final metrics snapshot")
			return obs.WritePrometheus(os.Stderr)
		})
		if err != nil {
			log.Printf("gqlserver: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("gqlserver: drained cleanly")
	case err := <-errc:
		fail("serve: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gqlserver: "+format+"\n", args...)
	os.Exit(1)
}
