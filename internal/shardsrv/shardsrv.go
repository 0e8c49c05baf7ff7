// Package shardsrv is the shard-server side of the multi-process read
// path: a small HTTP server that owns a mirror of the document store
// (partitioned and gindex-indexed locally with the same deterministic
// hash as the frontend) and evaluates one shard's slice of a selection
// per request, speaking the store wire protocol (store/wire.go).
//
// Endpoints:
//
//	POST /shard/select  one shard selection job; NDJSON frame response
//	POST /shard/sync    install a document pushed by a frontend (binary
//	                    collection body) after a stale handshake
//	GET  /healthz       liveness + document census for the prober
//	GET  /metrics       Prometheus text dump of the process registry
//
// The version handshake: every select request carries the frontend's
// content hash for the document; the server answers "stale" when its
// mirror hashes differently (or "unknown_doc" when it has no mirror),
// and the frontend converges it through /shard/sync before retrying.
// Responses are always HTTP 200 with in-band error frames, so the client
// needs exactly one answer shape.
package shardsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"gqldb/internal/graph"
	"gqldb/internal/obs"
	"gqldb/internal/store"
)

// Config configures a shard server.
type Config struct {
	// Shards is the partition width of the local mirror. It must equal the
	// frontend's shard count: both sides hash-partition the same canonical
	// collection, and the topology check on every request rejects a
	// mismatch.
	Shards int
	// IndexMaxLen builds per-shard path-feature indexes at install when
	// positive (the same knob as store.Options.IndexMaxLen).
	IndexMaxLen int
	// MaxBody caps request bodies in bytes (select requests and sync
	// pushes). Default 64 MiB — sync carries whole collections.
	MaxBody int64
	// Workers caps the shard-local match fan-out regardless of what the
	// request asks for. Default GOMAXPROCS.
	Workers int
}

// Server is the shard server: an http.Handler plus the drain machinery.
type Server struct {
	cfg   Config
	store *store.DocStore
	mux   *http.ServeMux

	draining atomic.Bool
	inflight atomic.Int64
}

// New returns a shard server with an empty mirror. Documents arrive via
// RegisterDoc (startup loading) or /shard/sync (frontend pushes).
func New(cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:   cfg,
		store: store.New(store.Options{Shards: cfg.Shards, IndexMaxLen: cfg.IndexMaxLen}),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /shard/select", s.handleSelect)
	s.mux.HandleFunc("POST /shard/sync", s.handleSync)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", obs.Handler())
	return s
}

// RegisterDoc installs a document into the mirror (partitioned and
// indexed per the server's config) and returns the mirror's new version.
func (s *Server) RegisterDoc(name string, c graph.Collection) (uint64, error) {
	return s.store.RegisterDoc(name, c)
}

// Bootstrap runs a startup document bootstrap (store.BootstrapFiles) against
// the mirror, before the server is handed to a listener.
func (s *Server) Bootstrap(fn func(*store.DocStore) error) error { return fn(s.store) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Inflight returns the number of selection jobs currently running.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// StartDrain stops admitting selection jobs; /healthz turns 503 so the
// frontend prober marks the endpoint unhealthy.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain runs the shutdown sequence: stop admission, let hs stop accepting
// and wait up to grace for in-flight jobs, then force-close.
func (s *Server) Drain(hs *http.Server, grace time.Duration) error {
	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return err
	}
	return nil
}

// errFrame answers with an in-band error frame (HTTP 200 — the protocol's
// single answer shape).
func errFrame(w http.ResponseWriter, code, msg string, version uint64, hash string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = store.EncodeFrame(w, &store.WireFrame{
		T: "error", Code: code, Message: msg, Version: version, Hash: hash,
	})
}

// handleSelect evaluates one shard selection job.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	obs.HTTPRequests.Inc()
	if s.draining.Load() {
		errFrame(w, store.WireCodeInternal, "shard server is draining", 0, "")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer func() {
		// A handler panic becomes an error frame and a log line, never a
		// dead shard server.
		if p := recover(); p != nil {
			buf := make([]byte, 4<<10)
			buf = buf[:runtime.Stack(buf, false)]
			log.Printf("shardsrv: panic serving /shard/select: %v\n%s", p, buf)
			errFrame(w, store.WireCodeInternal, "internal error", 0, "")
		}
	}()

	req, err := store.DecodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		errFrame(w, store.WireCodeBadRequest, err.Error(), 0, "")
		return
	}
	sn := s.store.Snapshot()
	d, ok := sn.Doc(req.Doc)
	if !ok {
		obs.ShardStaleRejections.Inc()
		errFrame(w, store.WireCodeUnknownDoc,
			fmt.Sprintf("no mirror of document %q", req.Doc), sn.Version(), "")
		return
	}
	if d.ContentHash() != req.Hash {
		// The handshake: the frontend registered a new collection under this
		// name; our mirror predates it. The client resyncs and retries.
		obs.ShardStaleRejections.Inc()
		errFrame(w, store.WireCodeStale,
			fmt.Sprintf("mirror of %q is stale", req.Doc), d.Version(), d.ContentHash())
		return
	}
	if len(d.Shards()) != req.Shards {
		errFrame(w, store.WireCodeTopology,
			fmt.Sprintf("mirror of %q has %d shards, request assumes %d (shard-count config mismatch)",
				req.Doc, len(d.Shards()), req.Shards), d.Version(), d.ContentHash())
		return
	}
	p, err := req.Pattern.Pattern()
	if err != nil {
		errFrame(w, store.WireCodeBadRequest, err.Error(), 0, "")
		return
	}
	opt, err := req.Options.Options()
	if err != nil {
		errFrame(w, store.WireCodeBadRequest, err.Error(), 0, "")
		return
	}
	workers := req.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	obs.ShardSelections.Inc()
	sreq := store.ShardRequest{
		Shard: d.Shards()[req.Shard], P: p, Opt: opt,
		Workers: workers, Doc: d, Index: req.Shard,
	}
	res, err := (store.LocalSelector{}).SelectShard(r.Context(), sreq)
	if err != nil {
		code := store.WireCodeInternal
		if r.Context().Err() != nil {
			code = store.WireCodeCanceled
		}
		errFrame(w, code, err.Error(), d.Version(), d.ContentHash())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := store.EncodeResult(w, &res, d.Version()); err != nil {
		// The client went away mid-answer; nothing to do but log.
		log.Printf("shardsrv: writing select answer: %v", err)
		return
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleSync installs a document pushed by a frontend: the body is the
// binary collection serialization, re-partitioned and re-indexed locally.
// A body over MaxBody is a 413; an unreadable or malformed one, or one whose
// content hash differs from the hash parameter, a 400 that installs nothing.
// A push without a hash parameter is installed unchecked.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	obs.HTTPRequests.Inc()
	name := r.URL.Query().Get("doc")
	if name == "" {
		http.Error(w, "missing doc parameter", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	coll, err := graph.ReadBinary(bytes.NewReader(body))
	if err != nil {
		http.Error(w, "malformed collection: "+err.Error(), http.StatusBadRequest)
		return
	}
	if want := r.URL.Query().Get("hash"); want != "" {
		if got := store.CollectionHash(coll); got != want {
			http.Error(w, fmt.Sprintf("collection hashes to %s, push says %s", got, want), http.StatusBadRequest)
			return
		}
	}
	v, err := s.store.RegisterDoc(name, coll)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	obs.ShardSyncs.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"version": v, "doc": name})
}

// handleHealthz reports liveness and the mirror census (the fields the
// RemoteSelector prober reads).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn := s.store.Snapshot()
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":        status,
		"docs":          len(sn.Docs()),
		"store_version": sn.Version(),
		"inflight":      s.inflight.Load(),
	})
}
