// The multi-process wire protocol over the ShardSelector seam.
//
// A selection request travels as one JSON object carrying the pattern by
// source parts (motif structure plus the predicate as expression source
// text — the paper's graphs-at-a-time framing keeps the unit of work a
// whole-graph selection, so one small request describes an entire shard's
// job), the shard assignment (document name, shard ordinal, partition
// width), the serializable matching options, and the version handshake
// (the frontend's store version plus the document's content hash). The
// response is NDJSON: one "group" frame per shard-local member graph with
// matches, in ascending local ordinal, then a terminal "done" or "error"
// frame. Mappings travel as node/edge ID arrays; the frontend re-binds
// them to its own graph pointers, so merged results are byte-identical to
// the in-process coordinator.
//
// Decoding never trusts the peer: every decoder returns a typed *WireError
// for malformed input (never panics), counts are bounded, and references
// (node names, ordinals, IDs) are validated before use.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gqldb/internal/algebra"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
)

// Wire protocol hard bounds: a frame that exceeds them is malformed, not
// merely large — the decoder rejects it before allocating proportionally.
const (
	// maxWireElems bounds pattern nodes/edges and attributes per tuple.
	maxWireElems = 1 << 16
	// maxWireMatches bounds mappings per member graph in one group frame.
	maxWireMatches = 1 << 24
	// maxWireLine bounds one NDJSON response line in bytes.
	maxWireLine = 64 << 20
)

// WireError is the typed decode error of the shard wire protocol: any
// malformed request or response frame decodes to one of these (wrapping
// the underlying cause), never to a panic.
type WireError struct {
	Reason string
	Err    error
}

func (e *WireError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("store: wire: %s: %v", e.Reason, e.Err)
	}
	return "store: wire: " + e.Reason
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *WireError) Unwrap() error { return e.Err }

func wireErrf(format string, args ...any) *WireError {
	return &WireError{Reason: fmt.Sprintf(format, args...)}
}

// WireValue is one attribute value in its typed JSON form. Exactly the
// field named by Kind is meaningful; the others stay at their zero values.
type WireValue struct {
	// Kind is "null", "int", "float", "string" or "bool".
	Kind string  `json:"k"`
	Int  int64   `json:"i,omitempty"`
	Flt  float64 `json:"f,omitempty"`
	Str  string  `json:"s,omitempty"`
	Bool bool    `json:"b,omitempty"`
}

// wireValue encodes a graph value.
func wireValue(v graph.Value) WireValue {
	switch v.Kind() {
	case graph.KindInt:
		return WireValue{Kind: "int", Int: v.AsInt()}
	case graph.KindFloat:
		return WireValue{Kind: "float", Flt: v.AsFloat()}
	case graph.KindString:
		return WireValue{Kind: "string", Str: v.AsString()}
	case graph.KindBool:
		return WireValue{Kind: "bool", Bool: v.AsBool()}
	}
	return WireValue{Kind: "null"}
}

// Value decodes the wire form back into a graph value.
func (w WireValue) Value() (graph.Value, error) {
	switch w.Kind {
	case "null":
		return graph.Null, nil
	case "int":
		return graph.Int(w.Int), nil
	case "float":
		return graph.Float(w.Flt), nil
	case "string":
		return graph.String(w.Str), nil
	case "bool":
		return graph.Bool(w.Bool), nil
	}
	return graph.Null, wireErrf("unknown value kind %q", w.Kind)
}

// WireAttr is one name/value pair of a tuple.
type WireAttr struct {
	Name string    `json:"n"`
	Val  WireValue `json:"v"`
}

// WireTuple is an attribute tuple: the tag plus the attributes in
// declaration order (order matters — the receiving Compile derives
// equality conjuncts by iterating it).
type WireTuple struct {
	Tag   string     `json:"tag,omitempty"`
	Attrs []WireAttr `json:"attrs,omitempty"`
}

// wireTuple encodes a tuple (nil stays nil).
func wireTuple(t *graph.Tuple) *WireTuple {
	if t == nil {
		return nil
	}
	out := &WireTuple{Tag: t.Tag}
	for i := 0; i < t.Len(); i++ {
		a := t.At(i)
		out.Attrs = append(out.Attrs, WireAttr{Name: a.Name, Val: wireValue(a.Val)})
	}
	return out
}

// tuple decodes back into a graph tuple (nil stays nil).
func (w *WireTuple) tuple() (*graph.Tuple, error) {
	if w == nil {
		return nil, nil
	}
	if len(w.Attrs) > maxWireElems {
		return nil, wireErrf("tuple has %d attributes (max %d)", len(w.Attrs), maxWireElems)
	}
	t := graph.NewTuple(w.Tag)
	for _, a := range w.Attrs {
		v, err := a.Val.Value()
		if err != nil {
			return nil, err
		}
		t.Set(a.Name, v)
	}
	return t, nil
}

// WireNode is one motif node of a pattern.
type WireNode struct {
	Name  string     `json:"name"`
	Tuple *WireTuple `json:"tuple,omitempty"`
}

// WireEdge is one motif edge, endpoints by node name.
type WireEdge struct {
	Name  string     `json:"name"`
	From  string     `json:"from"`
	To    string     `json:"to"`
	Tuple *WireTuple `json:"tuple,omitempty"`
}

// WirePattern carries a pattern by its construction parts: the motif
// (nodes and edges with their constraint tuples) plus the predicate as
// expression source text (Pattern.WhereSource). Decoding replays the
// construction and compiles, yielding a pattern whose compiled form —
// pushed-down conjunct order included — matches the original, so shard-
// side search enumerates matches in exactly the frontend's order.
type WirePattern struct {
	Name     string     `json:"name"`
	Directed bool       `json:"directed,omitempty"`
	Nodes    []WireNode `json:"nodes"`
	Edges    []WireEdge `json:"edges,omitempty"`
	Where    string     `json:"where,omitempty"`
}

// EncodePattern lowers a pattern to its wire form.
func EncodePattern(p *pattern.Pattern) WirePattern {
	out := WirePattern{
		Name:     p.Name,
		Directed: p.Motif.Directed,
		Where:    p.WhereSource(),
	}
	for _, n := range p.Motif.Nodes() {
		out.Nodes = append(out.Nodes, WireNode{Name: n.Name, Tuple: wireTuple(n.Attrs)})
	}
	for _, e := range p.Motif.Edges() {
		out.Edges = append(out.Edges, WireEdge{
			Name:  e.Name,
			From:  p.Motif.Node(e.From).Name,
			To:    p.Motif.Node(e.To).Name,
			Tuple: wireTuple(e.Attrs),
		})
	}
	return out
}

// Pattern rebuilds and compiles the pattern. Malformed wire forms (dangling
// edge endpoints, bad values, unparseable predicates) return a *WireError.
func (w WirePattern) Pattern() (*pattern.Pattern, error) {
	if len(w.Nodes) > maxWireElems || len(w.Edges) > maxWireElems {
		return nil, wireErrf("pattern has %d nodes / %d edges (max %d)", len(w.Nodes), len(w.Edges), maxWireElems)
	}
	var p *pattern.Pattern
	if w.Directed {
		p = pattern.NewDirected(w.Name)
	} else {
		p = pattern.New(w.Name)
	}
	ids := make(map[string]graph.NodeID, len(w.Nodes))
	for _, n := range w.Nodes {
		if _, dup := ids[n.Name]; dup {
			return nil, wireErrf("pattern declares node %q twice", n.Name)
		}
		t, err := n.Tuple.tuple()
		if err != nil {
			return nil, err
		}
		ids[n.Name] = p.AddNode(n.Name, t, nil)
	}
	for _, e := range w.Edges {
		from, okF := ids[e.From]
		to, okT := ids[e.To]
		if !okF || !okT {
			return nil, wireErrf("pattern edge %q references undeclared node", e.Name)
		}
		t, err := e.Tuple.tuple()
		if err != nil {
			return nil, err
		}
		p.AddEdge(e.Name, from, to, t, nil)
	}
	if w.Where != "" {
		e, err := parser.ParseExpr(w.Where)
		if err != nil {
			return nil, &WireError{Reason: "pattern predicate does not parse", Err: err}
		}
		p.Where(e)
	}
	if err := p.Compile(); err != nil {
		return nil, &WireError{Reason: "pattern does not compile", Err: err}
	}
	return p, nil
}

// WireOptions is what a selection's options say about the query: all
// mappings or the first, and the row limit. The mirror's store picks every
// member's access method itself (Doc.method), as the frontend's would, so
// nothing else travels.
type WireOptions struct {
	Exhaustive bool `json:"exhaustive,omitempty"`
	Limit      int  `json:"limit,omitempty"`
}

// EncodeOptions lowers match options to the wire subset.
func EncodeOptions(o match.Options) WireOptions {
	return WireOptions{Exhaustive: o.Exhaustive, Limit: o.Limit}
}

// Options rebuilds match options from the wire subset.
func (w WireOptions) Options() (match.Options, error) {
	if w.Limit < 0 {
		return match.Options{}, wireErrf("negative limit %d", w.Limit)
	}
	return match.Options{Exhaustive: w.Exhaustive, Limit: w.Limit}, nil
}

// WireRequest is one shard's selection job: POST /shard/select body.
type WireRequest struct {
	// Doc names the document; Shard is the ordinal in its partition and
	// Shards the partition width (both sides must have partitioned the same
	// collection the same way — Shards is the topology check).
	Doc    string `json:"doc"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	// Version is the frontend's install version for the document and Hash
	// its content hash — the per-request staleness handshake. A shard whose
	// mirror hashes differently answers with a "stale" error frame and is
	// resynced before the retry.
	Version uint64 `json:"version"`
	Hash    string `json:"hash"`
	// Workers bounds the shard-local fan-out (<=0 means 1).
	Workers int         `json:"workers,omitempty"`
	Pattern WirePattern `json:"pattern"`
	Options WireOptions `json:"options"`
}

// EncodeRequest writes the request as one JSON object.
func EncodeRequest(w io.Writer, req *WireRequest) error {
	return json.NewEncoder(w).Encode(req)
}

// DecodeRequest reads and validates one request from r (the shard server's
// request body, already size-capped by the HTTP layer). Malformed input
// returns a *WireError.
func DecodeRequest(r io.Reader) (*WireRequest, error) {
	dec := json.NewDecoder(r)
	var req WireRequest
	if err := dec.Decode(&req); err != nil {
		return nil, &WireError{Reason: "request does not decode", Err: err}
	}
	if req.Doc == "" {
		return nil, wireErrf("request names no document")
	}
	if req.Shards < 1 || req.Shard < 0 || req.Shard >= req.Shards {
		return nil, wireErrf("shard %d out of range of %d", req.Shard, req.Shards)
	}
	if req.Shards > maxWireElems {
		return nil, wireErrf("partition width %d exceeds %d", req.Shards, maxWireElems)
	}
	return &req, nil
}

// WireMatch is one mapping: data node IDs per pattern node, witness edge
// IDs per pattern edge.
type WireMatch struct {
	Nodes []graph.NodeID `json:"n"`
	Edges []graph.EdgeID `json:"e,omitempty"`
}

// WireFrame is one NDJSON response line. T discriminates:
//
//   - "group": matches of shard-local member Ord, ascending Ord order
//   - "done": terminal success (Candidates = members verified after the
//     shard-index filter, Version = the shard's store version)
//   - "error": terminal failure; Code is machine-readable ("stale",
//     "unknown_doc", "topology", "bad_request", "canceled", "internal"),
//     and a stale frame carries the shard's Version and Hash for the
//     resync decision
type WireFrame struct {
	T          string      `json:"t"`
	Ord        int         `json:"ord,omitempty"`
	Matches    []WireMatch `json:"matches,omitempty"`
	Candidates int         `json:"candidates,omitempty"`
	Version    uint64      `json:"version,omitempty"`
	Hash       string      `json:"hash,omitempty"`
	Code       string      `json:"code,omitempty"`
	Message    string      `json:"message,omitempty"`
}

// Stale-handshake and failure codes of the "error" frame.
const (
	WireCodeStale      = "stale"
	WireCodeUnknownDoc = "unknown_doc"
	WireCodeTopology   = "topology"
	WireCodeBadRequest = "bad_request"
	WireCodeCanceled   = "canceled"
	WireCodeInternal   = "internal"
)

// DecodeFrame parses one NDJSON line. Malformed frames (bad JSON, unknown
// discriminator, out-of-range ordinals or counts) return a *WireError.
func DecodeFrame(line []byte) (*WireFrame, error) {
	if len(line) > maxWireLine {
		return nil, wireErrf("frame of %d bytes exceeds %d", len(line), maxWireLine)
	}
	var f WireFrame
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, &WireError{Reason: "frame does not decode", Err: err}
	}
	switch f.T {
	case "group":
		if f.Ord < 0 {
			return nil, wireErrf("group frame with negative ordinal %d", f.Ord)
		}
		if len(f.Matches) > maxWireMatches {
			return nil, wireErrf("group frame with %d matches (max %d)", len(f.Matches), maxWireMatches)
		}
		for _, m := range f.Matches {
			if len(m.Nodes) > maxWireElems || len(m.Edges) > maxWireElems {
				return nil, wireErrf("mapping with %d nodes / %d edges (max %d)", len(m.Nodes), len(m.Edges), maxWireElems)
			}
			for _, id := range m.Nodes {
				if id < 0 {
					return nil, wireErrf("mapping with negative node id %d", id)
				}
			}
			for _, id := range m.Edges {
				if id < 0 {
					return nil, wireErrf("mapping with negative edge id %d", id)
				}
			}
		}
	case "done":
		if f.Candidates < 0 {
			return nil, wireErrf("done frame with negative candidate count")
		}
	case "error":
		if f.Code == "" {
			return nil, wireErrf("error frame without a code")
		}
	default:
		return nil, wireErrf("unknown frame type %q", f.T)
	}
	return &f, nil
}

// EncodeFrame writes f as one NDJSON line.
func EncodeFrame(w io.Writer, f *WireFrame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// EncodeResult streams a shard result as response frames: one group line
// per member with matches (ascending local ordinal — the order the
// coordinator's merge expects), then the done line.
func EncodeResult(w io.Writer, res *ShardResult, version uint64) error {
	for ord, group := range res.Groups {
		if len(group) == 0 {
			continue
		}
		f := WireFrame{T: "group", Ord: ord, Matches: make([]WireMatch, len(group))}
		for i, m := range group {
			f.Matches[i] = WireMatch{Nodes: m.M.Nodes, Edges: m.M.Edges}
		}
		if err := EncodeFrame(w, &f); err != nil {
			return err
		}
	}
	return EncodeFrame(w, &WireFrame{T: "done", Candidates: res.Candidates, Version: version})
}

// DecodeResult reads response frames until the terminal frame, rebinding
// mappings to the frontend's own shard (graph pointers and compiled
// pattern), so the assembled ShardResult is indistinguishable from a
// LocalSelector answer. An "error" frame surfaces as *ShardRemoteError;
// a malformed stream as *WireError.
func DecodeResult(r io.Reader, req ShardRequest) (ShardResult, error) {
	sh := req.Shard
	res := ShardResult{Groups: make([]algebra.Matched, len(sh.Coll))}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxWireLine)
	lastOrd := -1
	for sc.Scan() { // reads a finite HTTP response body; the per-attempt request context deadlines the transport, and EOF ends the scan
		f, err := DecodeFrame(sc.Bytes())
		if err != nil {
			return res, err
		}
		switch f.T {
		case "group":
			if f.Ord >= len(sh.Coll) {
				return res, wireErrf("group ordinal %d outside shard of %d members", f.Ord, len(sh.Coll))
			}
			if f.Ord <= lastOrd {
				return res, wireErrf("group ordinals not ascending (%d after %d)", f.Ord, lastOrd)
			}
			lastOrd = f.Ord
			g := sh.Coll[f.Ord]
			group := make(algebra.Matched, 0, len(f.Matches))
			for _, m := range f.Matches {
				for _, id := range m.Nodes {
					if int(id) >= g.NumNodes() {
						return res, wireErrf("mapping node id %d outside graph of %d nodes", id, g.NumNodes())
					}
				}
				for _, id := range m.Edges {
					if int(id) >= g.NumEdges() {
						return res, wireErrf("mapping edge id %d outside graph of %d edges", id, g.NumEdges())
					}
				}
				group = append(group, &algebra.MatchedGraph{
					P: req.P, G: g,
					M: match.Mapping{Nodes: m.Nodes, Edges: m.Edges},
				})
			}
			res.Groups[f.Ord] = group
		case "done":
			res.Candidates = f.Candidates
			return res, nil
		case "error":
			return res, &ShardRemoteError{Code: f.Code, Message: f.Message, Version: f.Version, Hash: f.Hash}
		}
	}
	if err := sc.Err(); err != nil {
		return res, &WireError{Reason: "response stream", Err: err}
	}
	return res, wireErrf("response ended without a terminal frame")
}

// ShardRemoteError is an error frame answered by a shard server — the
// machine-readable half of the wire protocol's failure paths. IsStale
// identifies the handshake mismatch the client resolves by resyncing.
type ShardRemoteError struct {
	Code    string
	Message string
	// Version and Hash describe the shard's mirror on a stale answer.
	Version uint64
	Hash    string
}

func (e *ShardRemoteError) Error() string {
	return fmt.Sprintf("store: shard answered %s: %s", e.Code, e.Message)
}

// IsStale reports whether the shard rejected the request over the version
// handshake (its mirror content diverged from the frontend's document).
func (e *ShardRemoteError) IsStale() bool {
	return e.Code == WireCodeStale || e.Code == WireCodeUnknownDoc
}

// errIsStale reports whether err carries a stale/unknown-doc shard answer.
func errIsStale(err error) bool {
	var re *ShardRemoteError
	return errors.As(err, &re) && re.IsStale()
}
