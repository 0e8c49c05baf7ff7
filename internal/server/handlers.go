// The request handlers and their JSON wire shapes. Both query endpoints
// accept either a raw GraphQL program as the body or a JSON envelope
// ({"query": ..., "timeout_ms": ..., "workers": ...}); responses are JSON
// with graphs rendered in the language's text syntax, byte-identical to
// what the embedded engine produces for the same program.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/parser"
	"gqldb/internal/store"
)

// queryRequest is the JSON envelope of /query, /explain and /v2/query
// (the v1 fields are frozen; skip/take/project only act on the v2
// endpoints).
type queryRequest struct {
	// Query is the GraphQL program source.
	Query string `json:"query"`
	// TimeoutMS overrides the server's default per-request deadline
	// (capped at Config.MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers overrides the engine's for-clause fan-out for this request
	// (negative means GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Skip (v2) drops the first Skip result rows inside the pipeline —
	// skipped rows are never materialized.
	Skip int `json:"skip,omitempty"`
	// Take (v2) caps the emitted rows: absent streams everything (subject
	// to Config.MaxTake), 0 emits no rows (summary only).
	Take *int `json:"take,omitempty"`
	// Project (v2) selects per-row fields ("node.attr" paths) instead of
	// the rendered graph text.
	Project []string `json:"project,omitempty"`
}

// queryResponse is the success shape of /query.
type queryResponse struct {
	// Results are the return-clause graphs in output order, rendered in the
	// language's text syntax.
	Results []string `json:"results"`
	// Vars are the final graph variables by name, rendered likewise.
	Vars map[string]string `json:"vars,omitempty"`
	// WallMS is the query's server-side wall time.
	WallMS float64 `json:"wall_ms"`
}

// opStat is one per-operator execution record of /explain.
type opStat struct {
	Op      string  `json:"op"`
	Items   int     `json:"items"`
	Workers int     `json:"workers"`
	WallMS  float64 `json:"wall_ms"`
}

// spanJSON is one trace-span node of /explain.
type spanJSON struct {
	Name     string           `json:"name"`
	WallMS   float64          `json:"wall_ms"`
	Attrs    []attrJSON       `json:"attrs,omitempty"`
	Counts   map[string]int64 `json:"counts,omitempty"`
	Children []spanJSON       `json:"children,omitempty"`
}

type attrJSON struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// explainResponse is the success shape of /explain.
type explainResponse struct {
	// Trace is the evaluation span tree.
	Trace *spanJSON `json:"trace"`
	// Render is the tree in the human-readable indented text form.
	Render string `json:"render"`
	// Operators is the per-operator table (bulk operators in execution
	// order).
	Operators []opStat `json:"operators,omitempty"`
	// Results counts the graphs the program produced (the graphs themselves
	// are /query's business).
	Results int     `json:"results"`
	WallMS  float64 `json:"wall_ms"`
}

// errorResponse is every error shape: {"error": {"code": ..., "message": ...}}.
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeJSON writes v with status; encoding errors past the header are
// connection failures and are dropped.
func writeJSON(w *statusWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the JSON error shape and records the code for the
// access log.
func writeError(w *statusWriter, status int, code, msg string) {
	w.code = code
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: msg}})
}

// readBody reads the body under the MaxBody cap. On failure it has
// already answered: 413 body_too_large past the cap, 400 bad_request for
// any other read error.
func (s *Server) readBody(w *statusWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeError(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
	}
	return nil, false
}

// readRequest reads the capped body and decodes the envelope: a JSON
// content type gets the full envelope, anything else is a raw program.
func (s *Server) readRequest(w *statusWriter, r *http.Request) (queryRequest, bool) {
	var req queryRequest
	body, ok := s.readBody(w, r)
	if !ok {
		return req, false
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "decoding JSON envelope: "+err.Error())
			return req, false
		}
	} else {
		req.Query = string(body)
	}
	if msg := req.violation(false); msg != "" {
		writeError(w, http.StatusBadRequest, "bad_request", msg)
		return req, false
	}
	return req, true
}

// timeout resolves the request's deadline against the server's default and
// cap.
func (s *Server) timeout(req queryRequest) time.Duration {
	d := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// begin is the one request prologue of the query, explain and mutate
// endpoints: reserve an admission slot, decode the body, and derive the
// request context from the server's base context (so a drain past its grace
// period cancels it) with the per-request deadline applied and client
// disconnect propagated via AfterFunc. On ok the caller must call done; on
// false the rejection is already written.
func (s *Server) begin(w *statusWriter, r *http.Request) (req queryRequest, ctx context.Context, done func(), ok bool) {
	release, ok := s.admit(w)
	if !ok {
		return req, nil, nil, false
	}
	req, ok = s.readRequest(w, r)
	if !ok {
		release()
		return req, nil, nil, false
	}
	ctx, cancel := context.WithTimeout(s.base, s.timeout(req))
	stop := context.AfterFunc(r.Context(), cancel)
	return req, ctx, func() { stop(); cancel(); release() }, true
}

// runRequest is the shared body of /query and /explain: the v1 endpoints
// are a CollectSink over the same StreamQuery call /v2/query streams from
// (parse, result cache keyed on the canonical program text and the store
// version, evaluation on a miss). It returns the buffered rows, the stream
// summary and the wall time; on false the error response is already written.
func (s *Server) runRequest(w *statusWriter, r *http.Request, trace bool) (graph.Collection, *exec.StreamResult, time.Duration, bool) {
	req, ctx, done, ok := s.begin(w, r)
	if !ok {
		return nil, nil, 0, false
	}
	defer done()
	eng := s.engine.Request(exec.RequestOptions{Workers: req.Workers, Trace: trace})
	sink := &exec.CollectSink{}
	start := time.Now()
	sres, err := eng.StreamQuery(ctx, req.Query, sink, exec.StreamOptions{Take: exec.AllRows})
	wall := time.Since(start)
	if err != nil {
		status, code, msg := s.errorFor(req, err)
		writeError(w, status, code, msg)
		return nil, nil, 0, false
	}
	return sink.Graphs, sres, wall, true
}

// errorFor maps an engine error to the wire contract shared by v1 and v2:
// the HTTP status, the stable error code and the client message. Timeouts
// are counted here so both surfaces feed one metric.
func (s *Server) errorFor(req queryRequest, err error) (status int, code, msg string) {
	var parseErr *exec.ParseError
	var shardErr *store.ShardError
	switch {
	case errors.As(err, &parseErr):
		return http.StatusBadRequest, "parse_error", parseErr.Error()
	case errors.Is(err, context.DeadlineExceeded):
		obs.HTTPTimeouts.Inc()
		return http.StatusGatewayTimeout, "timeout",
			fmt.Sprintf("query exceeded its deadline of %v", s.timeout(req))
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled", "query canceled: " + err.Error()
	case errors.As(err, &shardErr):
		return http.StatusBadGateway, "shard_error", err.Error()
	default:
		return http.StatusUnprocessableEntity, "eval_error", err.Error()
	}
}

// handleQuery serves POST /query.
func (s *Server) handleQuery(w *statusWriter, r *http.Request) {
	rows, res, wall, ok := s.runRequest(w, r, false)
	if !ok {
		return
	}
	out := queryResponse{
		Results: make([]string, len(rows)),
		WallMS:  float64(wall) / float64(time.Millisecond),
		Vars:    renderVars(res.Vars),
	}
	for i, g := range rows {
		out.Results[i] = renderGraph(g)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExplain serves POST /explain: the program runs with tracing
// enabled and the response is the observability view — span tree, rendered
// tree and per-operator table.
func (s *Server) handleExplain(w *statusWriter, r *http.Request) {
	rows, res, wall, ok := s.runRequest(w, r, true)
	if !ok {
		return
	}
	out := explainResponse{
		Trace:   spanToJSON(res.Trace),
		Render:  res.Trace.Render(),
		Results: len(rows),
		WallMS:  float64(wall) / float64(time.Millisecond),
	}
	if res.Stats != nil {
		for _, op := range res.Stats.Ops {
			out.Operators = append(out.Operators, opStat{
				Op: op.Op, Items: op.Items, Workers: op.Workers,
				WallMS: float64(op.Wall) / float64(time.Millisecond),
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// spanToJSON converts a span tree to the wire shape.
func spanToJSON(sp *obs.Span) *spanJSON {
	if sp == nil {
		return nil
	}
	out := &spanJSON{
		Name:   sp.Name,
		WallMS: float64(sp.Wall()) / float64(time.Millisecond),
		Counts: sp.Counts(),
	}
	if len(out.Counts) == 0 {
		out.Counts = nil
	}
	for _, a := range sp.Attrs() {
		out.Attrs = append(out.Attrs, attrJSON{Key: a.Key, Val: a.Val})
	}
	for _, c := range sp.Children() {
		out.Children = append(out.Children, *spanToJSON(c))
	}
	return out
}

// healthResponse is the /healthz shape.
type healthResponse struct {
	Status   string   `json:"status"` // "ok" or "draining"
	Inflight int64    `json:"inflight"`
	Docs     []string `json:"docs,omitempty"`
	// StoreVersion is the document store's current version (bumped by every
	// committed batch, registrations included).
	StoreVersion uint64 `json:"store_version"`
	// Cache is the result cache's counter snapshot, present when caching is
	// enabled.
	Cache *store.CacheStats `json:"cache,omitempty"`
	// PlanCache is the plan cache's counter snapshot, present when plan
	// caching is enabled.
	PlanCache *match.PlanCacheStats `json:"plan_cache,omitempty"`
	// Shards is the per-endpoint health of the remote shard cluster,
	// present when the engine routes selection through a health-reporting
	// selector (store.RemoteSelector).
	Shards []store.ShardHealth `json:"shards,omitempty"`
}

// handleHealthz serves GET /healthz: 200 ok while accepting, 503 once
// draining, with the in-flight query count, the loaded document names, the
// store version and the result-cache counters.
func (s *Server) handleHealthz(w *statusWriter, r *http.Request) {
	snap := s.engine.Docs.Snapshot()
	out := healthResponse{
		Status:       "ok",
		Inflight:     s.inflight.Load(),
		Docs:         snap.Docs(),
		StoreVersion: snap.Version(),
	}
	if s.engine.Cache != nil {
		stats := s.engine.Cache.Stats()
		out.Cache = &stats
	}
	if s.engine.Plans != nil {
		stats := s.engine.Plans.Stats()
		out.PlanCache = &stats
	}
	if hs, ok := s.engine.Selector.(interface{ Health() []store.ShardHealth }); ok {
		out.Shards = hs.Health()
	}
	status := http.StatusOK
	if s.draining.Load() {
		out.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

// handleAdminDoc serves POST /admin/doc?name=NAME (mounted only under
// Config.Admin): register a document over HTTP. The body is a binary
// collection (Content-Type application/octet-stream) or a sequence of
// graph literals in the language's text syntax. The registration is one
// mutation batch — WAL-logged before the 200 on a durable store — and its
// version bump propagates exactly as Server.RegisterDoc: in-flight queries
// finish on their snapshot, the result cache invalidates, and remote shard
// mirrors go stale until the next query's handshake resyncs them. A failed
// registration maps through errorFor, as on /v2/mutate.
func (s *Server) handleAdminDoc(w *statusWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing name parameter")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var coll graph.Collection
	var err error
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		coll, err = graph.ReadBinary(bytes.NewReader(body))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "malformed binary collection: "+err.Error())
			return
		}
	} else {
		coll, err = parser.ParseCollection(string(body))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "parsing document: "+err.Error())
			return
		}
	}
	v, err := s.RegisterDoc(name, coll)
	if err != nil {
		status, code, msg := s.errorFor(queryRequest{}, err)
		writeError(w, status, code, msg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"doc": name, "graphs": len(coll), "version": v})
}
