// The v2 streaming endpoints. Where v1 buffers the whole result into one
// JSON document, v2 speaks NDJSON: one JSON value per line, written as the
// exec pipeline pushes rows, flushed to the client on the configured
// interval. The line shapes:
//
//	{"row": {"n": 3, "graph": "..."}}            a result row (graph text)
//	{"row": {"n": 3, "values": {"v1.name": …}}}  a projected result row
//	{"summary": {"rows": …, "truncated": …}}     exactly one, last per query
//	{"error": {"code": …, "message": …}}         terminal, mid-stream
//
// Batch responses prefix every line with the query's index in the request
// ({"query": 0, "row": …}). "n" is the row's absolute ordinal in the full
// result (skip + position), so a client can resume from next_skip and see
// a continuous sequence.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/obs"
)

// rowLine is one streamed result row.
type rowLine struct {
	Query *int    `json:"query,omitempty"`
	Row   rowBody `json:"row"`
}

type rowBody struct {
	// N is the row's absolute ordinal in the full (unskipped) result.
	N int `json:"n"`
	// Graph is the row in the language's text syntax (absent under
	// projection).
	Graph string `json:"graph,omitempty"`
	// Values is the projected row (absent without projection).
	Values map[string]any `json:"values,omitempty"`
}

// summaryLine terminates every successful query stream.
type summaryLine struct {
	Query   *int        `json:"query,omitempty"`
	Summary summaryBody `json:"summary"`
}

type summaryBody struct {
	// Rows and Skipped count emitted and skipped rows.
	Rows    int `json:"rows"`
	Skipped int `json:"skipped"`
	// Truncated reports the stream stopped at the take limit; NextSkip is
	// the cursor to resume from (present only when truncated).
	Truncated bool `json:"truncated"`
	NextSkip  *int `json:"next_skip,omitempty"`
	// CacheHit reports the rows were replayed from the result cache.
	CacheHit bool    `json:"cache_hit,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	// Vars are the final graph variables (absent when truncated: the
	// program did not run to completion).
	Vars map[string]string `json:"vars,omitempty"`
}

// errorLine is a terminal mid-stream failure (the HTTP status is already
// committed as 200 once rows have flowed).
type errorLine struct {
	Query *int      `json:"query,omitempty"`
	Error errorBody `json:"error"`
}

// ndjsonWriter writes one JSON value per line with the server's flush
// policy: a negative interval flushes after every line; otherwise lines
// are flushed whenever FlushInterval has elapsed since the last flush, so
// slow result producers still deliver rows promptly.
type ndjsonWriter struct {
	w        *statusWriter
	enc      *json.Encoder
	interval time.Duration
	started  bool
	last     time.Time
}

func (s *Server) newNDJSONWriter(w *statusWriter) *ndjsonWriter {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return &ndjsonWriter{w: w, enc: enc, interval: s.cfg.FlushInterval}
}

// begin commits the NDJSON response header (once). After begin, errors can
// only be reported in-band as error lines.
func (nw *ndjsonWriter) begin() {
	if nw.started {
		return
	}
	nw.started = true
	nw.w.Header().Set("Content-Type", "application/x-ndjson")
	nw.w.WriteHeader(http.StatusOK)
	nw.last = time.Now()
}

// line encodes one value (json.Encoder appends the newline) and applies
// the flush policy.
func (nw *ndjsonWriter) line(v any) error {
	nw.begin()
	if err := nw.enc.Encode(v); err != nil {
		return err
	}
	if nw.interval < 0 || time.Since(nw.last) >= nw.interval {
		nw.flush()
	}
	return nil
}

// flush pushes buffered lines to the client.
func (nw *ndjsonWriter) flush() {
	if !nw.started {
		return
	}
	nw.w.Flush()
	nw.last = time.Now()
	obs.StreamFlushes.Inc()
}

// rowSink adapts the NDJSON writer into an exec.ResultSink: each emitted
// graph becomes one row line, projected when the request asked for fields.
// Emit runs on the query's coordinating goroutine (never from pool
// workers), so the shared encoder and flush clock need no locking; a
// client disconnect surfaces as a write error, which aborts the upstream
// fan-out.
type rowSink struct {
	nw      *ndjsonWriter
	project []string
	query   *int
	n       int // next absolute row ordinal
}

// Emit implements exec.ResultSink.
func (e *rowSink) Emit(g *graph.Graph) error {
	body := rowBody{N: e.n}
	if len(e.project) > 0 {
		body.Values = projectRow(g, e.project)
	} else {
		body.Graph = renderGraph(g)
	}
	e.n++
	return e.nw.line(rowLine{Query: e.query, Row: body})
}

// handleQueryV2 serves POST /v2/query.
func (s *Server) handleQueryV2(w *statusWriter, r *http.Request) {
	req, ctx, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	if msg := req.violation(true); msg != "" {
		writeError(w, http.StatusBadRequest, "bad_request", msg)
		return
	}
	eng := s.engine.Request(exec.RequestOptions{Workers: req.Workers})
	nw := s.newNDJSONWriter(w)
	em := &rowSink{nw: nw, project: req.Project, n: req.Skip}
	start := time.Now()
	sres, err := eng.StreamQuery(ctx, req.Query, em, exec.StreamOptions{Skip: req.Skip, Take: s.resolveTake(req)})
	if err != nil {
		s.streamError(w, nw, nil, req, err)
		return
	}
	s.writeSummary(nw, nil, req, sres, time.Since(start))
	nw.flush()
}

// violation returns why a request must be refused before any work runs, or
// "" when it is well-formed: an empty program and, when cursor is set (the
// v2 read endpoints, which honour skip/take), a negative skip or take.
func (req queryRequest) violation(cursor bool) string {
	switch {
	case strings.TrimSpace(req.Query) == "":
		return "empty query"
	case cursor && req.Skip < 0:
		return "skip must be >= 0"
	case cursor && req.Take != nil && *req.Take < 0:
		return "take must be >= 0"
	}
	return ""
}

// resolveTake turns the request's optional take into the exec-level limit,
// applying Config.MaxTake: absent means everything (up to the cap);
// explicit takes are clamped to the cap.
func (s *Server) resolveTake(req queryRequest) int {
	take := exec.AllRows
	if req.Take != nil {
		take = *req.Take
	}
	if s.cfg.MaxTake > 0 && (take < 0 || take > s.cfg.MaxTake) {
		take = s.cfg.MaxTake
	}
	return take
}

// streamError reports a failed query: a JSON error response while the
// stream has not started, an in-band error line (the status is already
// committed) afterwards.
func (s *Server) streamError(w *statusWriter, nw *ndjsonWriter, query *int, req queryRequest, err error) {
	status, code, msg := s.errorFor(req, err)
	if !nw.started {
		writeError(w, status, code, msg)
		return
	}
	w.code = code
	_ = nw.line(errorLine{Query: query, Error: errorBody{Code: code, Message: msg}})
	nw.flush()
}

// writeSummary terminates one query's stream with its summary line.
func (s *Server) writeSummary(nw *ndjsonWriter, query *int, req queryRequest, sres *exec.StreamResult, wall time.Duration) {
	body := summaryBody{
		Rows:      sres.Rows,
		Skipped:   sres.Skipped,
		Truncated: sres.Truncated,
		CacheHit:  sres.CacheHit,
		WallMS:    float64(wall) / float64(time.Millisecond),
		Vars:      renderVars(sres.Vars),
	}
	if sres.Truncated {
		next := req.Skip + sres.Rows
		body.NextSkip = &next
	}
	_ = nw.line(summaryLine{Query: query, Summary: body})
}

// batchRequest is the JSON envelope of /v2/batch: several programs that
// execute sequentially against one pinned store snapshot, sharing one
// request deadline (per-query timeout_ms fields are ignored; workers,
// skip/take and projection apply per query).
type batchRequest struct {
	Queries   []queryRequest `json:"queries"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
}

// handleBatchV2 serves POST /v2/batch: one admission slot, one snapshot,
// one NDJSON stream with every line tagged by query index. A failed query
// emits an error line and the batch moves on, unless the failure is the
// shared deadline or a client disconnect, which ends the batch.
func (s *Server) handleBatchV2(w *statusWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var breq batchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding batch envelope: "+err.Error())
		return
	}
	if len(breq.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "batch has no queries")
		return
	}
	if len(breq.Queries) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch carries %d queries, limit is %d", len(breq.Queries), s.cfg.MaxBatch))
		return
	}

	ctx, cancel := context.WithTimeout(s.base, s.timeout(queryRequest{TimeoutMS: breq.TimeoutMS}))
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()

	// One snapshot pins every program in the batch to a single store
	// version: a concurrent RegisterDoc never tears the batch, and the
	// result-cache keys carry the pinned version.
	snap := s.engine.Docs.Snapshot()
	nw := s.newNDJSONWriter(w)
	nw.begin()
	for qi := range breq.Queries {
		q := breq.Queries[qi]
		qref := qi
		if msg := q.violation(true); msg != "" {
			s.batchBadRequest(w, nw, &qref, msg)
			continue
		}
		obs.BatchQueries.Inc()
		eng := s.engine.Request(exec.RequestOptions{Workers: q.Workers})
		em := &rowSink{nw: nw, project: q.Project, query: &qref, n: q.Skip}
		start := time.Now()
		sres, err := eng.StreamQuery(ctx, q.Query, em, exec.StreamOptions{
			Skip: q.Skip, Take: s.resolveTake(q), Snapshot: snap,
		})
		if err != nil {
			s.streamError(w, nw, &qref, q, err)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		s.writeSummary(nw, &qref, q, sres, time.Since(start))
	}
	nw.flush()
}

// batchBadRequest reports one query's validation failure in-band.
func (s *Server) batchBadRequest(w *statusWriter, nw *ndjsonWriter, query *int, msg string) {
	w.code = "bad_request"
	_ = nw.line(errorLine{Query: query, Error: errorBody{Code: "bad_request", Message: msg}})
}

// schemaResponse is the GET /v2/schema shape: what an agent reads before
// writing queries.
type schemaResponse struct {
	API          string      `json:"api"`
	StoreVersion uint64      `json:"store_version"`
	Docs         []docSchema `json:"docs"`
}

type docSchema struct {
	Name      string           `json:"name"`
	Graphs    int              `json:"graphs"`
	Shards    int              `json:"shards"`
	Indexed   bool             `json:"indexed"`
	Nodes     int64            `json:"nodes"`
	Edges     int64            `json:"edges"`
	NodeAttrs map[string]int64 `json:"node_attrs,omitempty"`
	EdgeAttrs map[string]int64 `json:"edge_attrs,omitempty"`
}

// handleSchemaV2 serves GET /v2/schema: the loaded documents at the
// current store version with per-document size and attribute inventories
// (computed lazily once per registered document). Introspection skips
// admission control — it runs no query.
func (s *Server) handleSchemaV2(w *statusWriter, r *http.Request) {
	snap := s.engine.Docs.Snapshot()
	out := schemaResponse{API: "v2", StoreVersion: snap.Version(), Docs: []docSchema{}}
	for _, name := range snap.Docs() {
		d, ok := snap.Doc(name)
		if !ok {
			continue
		}
		st := d.Stats()
		out.Docs = append(out.Docs, docSchema{
			Name: name, Graphs: st.Graphs, Shards: st.Shards, Indexed: st.Indexed,
			Nodes: st.Nodes, Edges: st.Edges,
			NodeAttrs: st.NodeAttrs, EdgeAttrs: st.EdgeAttrs,
		})
	}
	writeJSON(w, http.StatusOK, out)
}
