// Command gqlshard serves one process of the distributed read path: a
// shard server holding a full mirror of the document set, partitioned
// locally with the same deterministic hash as the frontend, answering
// per-shard selection jobs over the store wire protocol. A job carries only
// exhaustive and limit: the mirror's store picks each member's access method.
//
// Usage:
//
//	gqlshard -addr :7301 -shards 3 [-doc name=file.tsv ...] \
//	    [-index-paths L] [-workers N] [-max-body BYTES] [-grace 10s]
//
// -shards MUST match the frontend's shard count: both sides hash-partition
// each document identically, and a request whose partition width disagrees
// is rejected with a topology error. Documents may be preloaded with -doc
// (same formats as gqlserver: .tsv, .bin, .gql) or arrive at runtime via
// /shard/sync when a frontend detects the mirror is stale — a gqlshard
// started empty converges on first contact.
//
// Endpoints:
//
//	POST /shard/select  one shard's selection job; NDJSON frames
//	POST /shard/sync    install a document pushed by the frontend
//	GET  /healthz       liveness + mirror census
//	GET  /metrics       Prometheus text dump
//
// On SIGTERM/SIGINT the server drains: /healthz flips to 503, in-flight
// jobs get up to -grace to finish, and the process exits 0 on a clean
// drain.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gqldb/internal/shardsrv"
	"gqldb/internal/store"
)

func main() {
	docs := store.DocFlags{}
	flag.Var(docs, "doc", "document binding name=path (repeatable; .tsv, .bin or .gql)")
	addr := flag.String("addr", ":7301", "listen address")
	shards := flag.Int("shards", 1, "partition width; must equal the frontend's -shards")
	indexLen := flag.Int("index-paths", 0, "per-shard path-feature index max length (0 disables)")
	workers := flag.Int("workers", 0, "cap on shard-local match fan-out (0 = GOMAXPROCS)")
	maxBody := flag.Int64("max-body", 64<<20, "request body cap in bytes (select jobs and sync pushes)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight jobs")
	flag.Parse()

	srv := shardsrv.New(shardsrv.Config{
		Shards:      *shards,
		IndexMaxLen: *indexLen,
		MaxBody:     *maxBody,
		Workers:     *workers,
	})
	err := srv.Bootstrap(store.BootstrapFiles(docs, func(format string, args ...any) {
		log.Printf("gqlshard: "+format, args...)
	}))
	if err != nil {
		fail("%v", err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen %s: %v", *addr, err)
	}
	log.Printf("gqlshard: listening on %s", l.Addr())

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("gqlshard: received %v, draining (grace %v, %d in flight)", s, *grace, srv.Inflight())
		if err := srv.Drain(hs, *grace); err != nil {
			log.Printf("gqlshard: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("gqlshard: drained cleanly")
	case err := <-errc:
		fail("serve: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gqlshard: "+format+"\n", args...)
	os.Exit(1)
}
