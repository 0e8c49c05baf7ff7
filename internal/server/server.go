// Package server is the production HTTP frontend over the query engine:
// GraphQL (He & Singh) programs arrive as POST bodies and leave as JSON,
// with the process's observability surface mounted next to them.
//
// Endpoints:
//
//	POST /query    run a program, return result graphs and variables
//	               (v1, buffered; the envelope is frozen)
//	POST /explain  run a program traced, return the span tree and
//	               per-operator table
//	POST /v2/query streaming NDJSON: one line per result row as the
//	               pipeline produces it, with skip/take cursor pagination
//	               and per-row field projection, then a summary line
//	POST /v2/batch several programs in one request, pinned to one store
//	               snapshot, streamed back as interleaved NDJSON with a
//	               query index on every line
//	GET  /v2/schema loaded documents, store version and per-document
//	               attribute inventory
//	POST /v2/mutate apply a mutation program (create/drop/insert/delete
//	               statements) as one all-or-nothing batch; the 200 is
//	               written only after the batch committed (and, on a
//	               durable store, fsynced into the WAL). Mounted only
//	               under Config.Admin, like /admin/doc
//	GET  /metrics  Prometheus text dump of the process metrics registry
//	GET  /debug/vars  expvar (includes the "gqldb" snapshot var)
//	GET  /healthz  liveness + drain state + in-flight count
//
// The server is production-shaped rather than a demo: every query runs
// under a per-request context deadline threaded into the ctx-first
// match/algebra pipeline, admission is bounded by a semaphore (overload
// returns 429 with Retry-After instead of queueing without bound), request
// bodies are size-capped, panics convert to a 500 without killing the
// process, and every request is access-logged with its status, wall time
// and terminal error code. Shutdown is graceful: draining flips /healthz
// to 503 and rejects new queries while in-flight ones finish inside a
// configurable grace period, after which the base context is cancelled so
// even a pathological query unwinds within one backtracking step.
package server

import (
	"context"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/obs"
	"gqldb/internal/store"
)

// Config carries the server's operational knobs; zero values take the
// documented defaults.
type Config struct {
	// Engine is the shared query engine (store, selection options, worker
	// fan-out, slow-query hook). Required.
	Engine *exec.Engine
	// MaxInflight bounds concurrently admitted queries; excess requests are
	// rejected with 429 and Retry-After. Default: 2×GOMAXPROCS.
	MaxInflight int
	// MaxBody caps the request body in bytes; larger bodies get 413.
	// Default: 1 MiB.
	MaxBody int64
	// Timeout is the default per-request deadline. Default: 30s.
	Timeout time.Duration
	// MaxTimeout caps a client-requested timeout_ms. Default: 5m.
	MaxTimeout time.Duration
	// AccessLog receives one record per finished request; nil logs through
	// the standard logger.
	AccessLog func(AccessRecord)
	// FlushInterval paces the periodic flushes of streamed v2 responses:
	// rows are flushed to the client whenever this much time has passed
	// since the last flush. Zero takes the 100ms default; negative flushes
	// after every row (useful for tests and interactive agents).
	FlushInterval time.Duration
	// MaxTake caps the per-query take of the v2 endpoints: requests asking
	// for more (or for everything) are truncated at the cap and handed a
	// next_skip cursor. Zero means uncapped.
	MaxTake int
	// MaxBatch caps the number of programs one /v2/batch request may
	// carry. Default: 16.
	MaxBatch int
	// Admin mounts the mutating admin surface (POST /admin/doc — register
	// a document over HTTP — and POST /v2/mutate — apply a mutation
	// program). Off by default: the write surface is for trusted
	// operators and cluster tests, not the query plane.
	Admin bool
}

// AccessRecord is one structured access-log line.
type AccessRecord struct {
	// Method and Path identify the request.
	Method, Path string
	// Status is the final HTTP status code.
	Status int
	// Wall is the handler's wall time.
	Wall time.Duration
	// Bytes is the response body size.
	Bytes int
	// Code is the terminal error code ("" on success) — the same code the
	// JSON error body carries.
	Code string
}

// String renders the record as one key=value log line.
func (r AccessRecord) String() string {
	s := fmt.Sprintf("method=%s path=%s status=%d wall=%v bytes=%d",
		r.Method, r.Path, r.Status, r.Wall.Round(time.Microsecond), r.Bytes)
	if r.Code != "" {
		s += " code=" + r.Code
	}
	return s
}

// Server is the HTTP frontend. Construct with New, mount as an
// http.Handler, and run the shutdown state machine with Drain.
type Server struct {
	cfg    Config
	engine *exec.Engine
	mux    *http.ServeMux

	// sem is the admission semaphore: a slot per admitted query.
	sem chan struct{}
	// inflight counts admitted queries, reported by /healthz.
	inflight atomic.Int64
	// draining is set once by StartDrain; no new queries are admitted after.
	draining atomic.Bool

	// base is the ancestor of every request context; CancelInflight cancels
	// it to unwind queries that outlive the drain grace period.
	base       context.Context
	cancelBase context.CancelFunc
}

// New returns a server over cfg.Engine with defaults applied.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = exec.NewOver(nil)
	}
	if cfg.Engine.Docs == nil {
		cfg.Engine.Docs = store.New(store.Options{})
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 100 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		engine:     cfg.Engine,
		mux:        http.NewServeMux(),
		sem:        make(chan struct{}, cfg.MaxInflight),
		base:       base,
		cancelBase: cancel,
	}
	s.mux.Handle("POST /query", s.wrap("/query", s.handleQuery))
	s.mux.Handle("POST /explain", s.wrap("/explain", s.handleExplain))
	s.mux.Handle("POST /v2/query", s.wrap("/v2/query", s.handleQueryV2))
	s.mux.Handle("POST /v2/batch", s.wrap("/v2/batch", s.handleBatchV2))
	s.mux.Handle("GET /v2/schema", s.wrap("/v2/schema", s.handleSchemaV2))
	s.mux.Handle("GET /healthz", s.wrap("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", obs.Handler())
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	if cfg.Admin {
		s.mux.Handle("POST /admin/doc", s.wrap("/admin/doc", s.handleAdminDoc))
		s.mux.Handle("POST /v2/mutate", s.wrap("/v2/mutate", s.handleMutateV2))
	}
	return s
}

// RegisterDoc binds a document name (the target of doc("...") clauses) to a
// collection through the engine's versioned store and returns the new store
// version; on a durable store the registration is WAL-logged like any
// mutation batch. Safe to call at any time, including while queries are
// running: in-flight queries finish against the snapshot they started
// with, and the version bump invalidates the result cache so no later
// query sees stale data.
func (s *Server) RegisterDoc(name string, c graph.Collection) (uint64, error) {
	return s.engine.Docs.RegisterDoc(name, c)
}

// Inflight returns the number of currently admitted queries.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter captures the status code and body size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	code   string // terminal JSON error code, set by writeError
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer's http.Flusher (the streaming v2
// endpoints push buffered NDJSON rows to the client); a non-flushing
// writer is a no-op.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap is the middleware chain shared by every JSON endpoint: panic
// recovery (a handler panic becomes a 500 response and a log line, never a
// dead process) and structured access logging.
func (s *Server) wrap(path string, h func(*statusWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.HTTPRequests.Inc()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 4<<10)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("server: panic serving %s: %v\n%s", path, p, buf)
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			rec := AccessRecord{
				Method: r.Method, Path: path, Status: sw.status,
				Wall: time.Since(start), Bytes: sw.bytes, Code: sw.code,
			}
			if s.cfg.AccessLog != nil {
				s.cfg.AccessLog(rec)
			} else {
				log.Printf("server: %s", rec)
			}
		}()
		h(sw, r)
	})
}

// admit reserves an admission slot, or writes the overload/draining
// rejection and returns false. The caller must call the release func when
// the query finishes.
func (s *Server) admit(w *statusWriter) (release func(), ok bool) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is shutting down")
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		obs.HTTPOverload.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("server at max in-flight queries (%d); retry later", cap(s.sem)))
		return nil, false
	}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.sem
	}, true
}

// StartDrain flips the server into draining mode: /healthz turns 503 and
// new queries are rejected, while already-admitted queries keep running.
// Safe to call more than once.
func (s *Server) StartDrain() { s.draining.Store(true) }

// CancelInflight cancels the base context under every in-flight query;
// the ctx-first pipeline unwinds each within one backtracking step and the
// handlers answer with a cancellation error.
func (s *Server) CancelInflight() { s.cancelBase() }

// Drain runs the shutdown state machine against the http.Server serving
// this handler:
//
//	accepting → draining → (grace expired?) cancelling → stopped
//
// It stops admission (StartDrain), asks hs to stop accepting and waits up
// to grace for in-flight requests to finish; if any remain it cancels
// their contexts (CancelInflight) and closes the listener. Either way the
// final metrics snapshot is flushed through flush (nil skips). The
// returned error is nil when everything drained inside the grace period.
func (s *Server) Drain(hs *http.Server, grace time.Duration, flush func() error) error {
	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := hs.Shutdown(ctx)
	if err != nil {
		// Grace expired with requests still running: cancel their contexts
		// and give them a moment to unwind before closing connections.
		s.CancelInflight()
		fctx, fcancel := context.WithTimeout(context.Background(), time.Second)
		defer fcancel()
		if serr := hs.Shutdown(fctx); serr != nil {
			hs.Close()
		}
	}
	if flush != nil {
		if ferr := flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}
