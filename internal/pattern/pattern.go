// Package pattern implements GraphQL graph patterns (§3.2): a pair
// P = (M, F) of a graph motif M and a predicate F over the motif's
// attributes. Compile pushes F's conjuncts down onto individual nodes and
// edges (§4.1), leaving only genuinely multi-variable conjuncts in the
// graph-wide residual predicate, compiles the residual conjuncts that read
// only graph attributes into a per-member graph gate, and extracts constant
// label constraints so access methods can use label indexes.
package pattern

import (
	"fmt"
	"strings"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
)

// Pattern is a compiled graph pattern. Construct with New/AddNode/AddEdge/
// Where and finish with Compile before matching.
type Pattern struct {
	// Name is the pattern variable (e.g. P); it may qualify names in the
	// predicate as P.v1.name.
	Name string
	// Motif is the structural part: a graph whose nodes and edges are
	// variables. Attribute tuples on motif elements are equality
	// constraints and are compiled into predicates.
	Motif *graph.Graph
	// NodePred[u] is the conjunction of predicates that mention only node
	// u, rewritten to bare attribute names.
	NodePred []expr.Expr
	// NodeTag[u] is the required tuple tag of a mate of u ("" = any).
	NodeTag []string
	// EdgePred[e] is the per-edge predicate over bare attribute names.
	EdgePred []expr.Expr
	// Global is the residual graph-wide predicate; its names are resolved
	// against the whole binding (multi-node conjuncts, graph attributes).
	// It keeps every residual conjunct, the graph conjuncts included.
	Global expr.Expr

	// Compiled closure forms of the predicates above, built once by
	// Compile so the per-candidate feasible-mate test and the per-binding
	// residual check run without tree-walking (see expr.Compile). Nil
	// entries hold trivially.
	nodePredC []expr.Pred
	edgePredC []expr.Pred
	globalC   expr.Pred
	// graphC is the graph gate: the conjunction of Global's graph
	// conjuncts (every name a graph attribute, see graphName) over bare
	// names, nil when Global has none. It has the same value at every
	// binding of one member graph, so GraphHolds decides it once per member
	// before any matching.
	graphC expr.Pred

	// Pattern-side search structures, built once by Compile and shared
	// read-only by every evaluation: the canonical planning shape and the
	// motif half-edges incident to each node.
	shape  string
	halves [][]Half

	// where holds the raw predicates accumulated before Compile.
	where []expr.Expr
	// constLabel[u] is the constant required by a `label == "X"` conjunct
	// on u, or "" when the node is unconstrained by label.
	constLabel []string
	compiled   bool
}

// New returns an empty pattern with an undirected motif.
func New(name string) *Pattern {
	return &Pattern{Name: name, Motif: graph.New(name)}
}

// NewDirected returns an empty pattern with a directed motif.
func NewDirected(name string) *Pattern {
	p := New(name)
	p.Motif.Directed = true
	return p
}

// AddNode declares a motif node with optional attribute constraints and an
// optional node-level where clause (bare attribute names).
func (p *Pattern) AddNode(name string, attrs *graph.Tuple, where expr.Expr) graph.NodeID {
	id := p.Motif.AddNode(name, attrs)
	p.NodePred = append(p.NodePred, nil)
	p.NodeTag = append(p.NodeTag, "")
	p.constLabel = append(p.constLabel, "")
	if where != nil {
		nm := p.Motif.Node(id).Name
		p.where = append(p.where, qualify(where, nm))
	}
	return id
}

// AddEdge declares a motif edge with optional attribute constraints and an
// optional edge-level where clause.
func (p *Pattern) AddEdge(name string, from, to graph.NodeID, attrs *graph.Tuple, where expr.Expr) graph.EdgeID {
	id := p.Motif.AddEdge(name, from, to, attrs)
	p.EdgePred = append(p.EdgePred, nil)
	if where != nil {
		nm := p.Motif.Edge(id).Name
		p.where = append(p.where, qualify(where, nm))
	}
	return id
}

// Where adds a pattern-wide predicate; its conjuncts are distributed onto
// nodes and edges at Compile time.
func (p *Pattern) Where(e expr.Expr) {
	if e != nil {
		p.where = append(p.where, e)
	}
}

// qualify prefixes bare names in a node/edge-level where clause with the
// element's variable so all predicates share one naming scheme.
func qualify(e expr.Expr, elem string) expr.Expr {
	return expr.Rewrite(e, func(n expr.Name) expr.Name {
		if len(n.Parts) == 1 {
			return expr.Name{Parts: []string{elem, n.Parts[0]}}
		}
		return n
	})
}

// LabelNode is shorthand for AddNode with a single `label == l` constraint;
// the evaluation workloads (§5) use exactly this form.
func (p *Pattern) LabelNode(name, label string) graph.NodeID {
	return p.AddNode(name, graph.TupleOf("", "label", label), nil)
}

// Compile pushes predicates down and freezes the pattern. It is idempotent.
func (p *Pattern) Compile() error {
	if p.compiled {
		return nil
	}
	if err := p.Motif.Err(); err != nil {
		return fmt.Errorf("pattern: %s: malformed motif: %w", p.Name, err)
	}
	// Attribute tuples on motif elements become equality conjuncts; tags
	// become tag requirements. The derived conjuncts go into a local copy so
	// p.where keeps exactly the construction-time predicates — WhereSource
	// serializes those, and the wire decoder re-derives the tuple conjuncts
	// from the tuples themselves.
	where := append([]expr.Expr(nil), p.where...)
	for _, n := range p.Motif.Nodes() {
		if n.Attrs == nil {
			continue
		}
		p.NodeTag[n.ID] = n.Attrs.Tag
		for i := 0; i < n.Attrs.Len(); i++ {
			a := n.Attrs.At(i)
			where = append(where, expr.Binary{
				Op: expr.OpEq,
				L:  expr.Name{Parts: []string{n.Name, a.Name}},
				R:  expr.Lit{Val: a.Val},
			})
		}
	}
	for _, e := range p.Motif.Edges() {
		if e.Attrs == nil {
			continue
		}
		for i := 0; i < e.Attrs.Len(); i++ {
			a := e.Attrs.At(i)
			where = append(where, expr.Binary{
				Op: expr.OpEq,
				L:  expr.Name{Parts: []string{e.Name, a.Name}},
				R:  expr.Lit{Val: a.Val},
			})
		}
	}
	var global, gate []expr.Expr
	for _, w := range where {
		for _, c := range expr.Conjuncts(w) {
			if p.pushDown(c) {
				continue
			}
			global = append(global, c)
			if local, ok := p.graphLocal(c); ok {
				gate = append(gate, local)
			}
		}
	}
	p.Global = expr.And(global...)
	p.extractConstLabels()
	// Lower every predicate to its closure form once; the σ_P inner loop
	// then evaluates candidates without re-walking the trees.
	p.nodePredC = make([]expr.Pred, len(p.NodePred))
	for u, e := range p.NodePred {
		p.nodePredC[u] = expr.CompilePred(e)
	}
	p.edgePredC = make([]expr.Pred, len(p.EdgePred))
	for e, x := range p.EdgePred {
		p.edgePredC[e] = expr.CompilePred(x)
	}
	p.globalC = expr.CompilePred(p.Global)
	p.graphC = expr.CompilePred(expr.And(gate...))
	p.shape = p.renderShape()
	p.halves = make([][]Half, p.Motif.NumNodes())
	for _, e := range p.Motif.Edges() {
		p.halves[e.From] = append(p.halves[e.From], Half{Edge: e.ID, To: e.To, Out: true})
		if e.From != e.To {
			p.halves[e.To] = append(p.halves[e.To], Half{Edge: e.ID, To: e.From, Out: false})
		}
	}
	p.compiled = true
	return p.validate()
}

// graphName strips the pattern qualifier from a name the way the matcher's
// binding environment does, and returns the graph attribute it reads —
// a one-element name — or nil when it reads a motif element.
func (p *Pattern) graphName(parts []string) []string {
	if len(parts) >= 2 && p.Name != "" && parts[0] == p.Name {
		parts = parts[1:]
	}
	if len(parts) != 1 {
		return nil
	}
	return parts
}

// graphLocal rewrites a residual conjunct to bare names when every name in
// it reads a graph attribute (a bare name or P.name): a graph conjunct.
// Such a conjunct has one value per member graph, whatever the binding.
func (p *Pattern) graphLocal(c expr.Expr) (expr.Expr, bool) {
	for _, n := range expr.Names(c) {
		if p.graphName(n) == nil {
			return nil, false
		}
	}
	return expr.Rewrite(c, func(n expr.Name) expr.Name {
		return expr.Name{Parts: p.graphName(n.Parts)}
	}), true
}

// owner classifies a qualified name: the motif element that owns it (node or
// edge variable) or "" when it refers to the graph or spans elements.
func (p *Pattern) owner(parts []string) (elem string, attr string, ok bool) {
	// Strip a leading pattern qualifier (P.v1.name -> v1.name).
	if len(parts) >= 2 && parts[0] == p.Name && p.Name != "" {
		parts = parts[1:]
	}
	if len(parts) != 2 {
		return "", "", false
	}
	if _, isNode := p.Motif.NodeByName(parts[0]); isNode {
		return parts[0], parts[1], true
	}
	if _, isEdge := p.Motif.EdgeByName(parts[0]); isEdge {
		return parts[0], parts[1], true
	}
	return "", "", false
}

// pushDown attaches a conjunct to its single owning node or edge; reports
// whether it was pushed.
func (p *Pattern) pushDown(c expr.Expr) bool {
	names := expr.Names(c)
	if len(names) == 0 {
		return false
	}
	var elem string
	for _, n := range names {
		e, _, ok := p.owner(n)
		if !ok {
			return false
		}
		if elem == "" {
			elem = e
		} else if elem != e {
			return false
		}
	}
	// Rewrite names to bare attribute form for element-local evaluation.
	local := expr.Rewrite(c, func(n expr.Name) expr.Name {
		_, attr, _ := p.owner(n.Parts)
		return expr.Name{Parts: []string{attr}}
	})
	if u, ok := p.Motif.NodeByName(elem); ok {
		p.NodePred[u] = expr.And(p.NodePred[u], local)
		return true
	}
	e, _ := p.Motif.EdgeByName(elem)
	p.EdgePred[e] = expr.And(p.EdgePred[e], local)
	return true
}

// extractConstLabels records `label == const` constraints for index lookup.
func (p *Pattern) extractConstLabels() {
	for u := range p.NodePred {
		for _, c := range expr.Conjuncts(p.NodePred[u]) {
			b, ok := c.(expr.Binary)
			if !ok || b.Op != expr.OpEq {
				continue
			}
			nm, okL := b.L.(expr.Name)
			lit, okR := b.R.(expr.Lit)
			if !okL || !okR { // also accept const == label
				nm, okL = b.R.(expr.Name)
				lit, okR = b.L.(expr.Lit)
			}
			if okL && okR && len(nm.Parts) == 1 && nm.Parts[0] == "label" && lit.Val.Kind() == graph.KindString {
				p.constLabel[u] = lit.Val.AsString()
			}
		}
	}
}

// ConstLabel returns the constant label required of mates of u, if any.
func (p *Pattern) ConstLabel(u graph.NodeID) (string, bool) {
	l := p.constLabel[u]
	return l, l != ""
}

// validate rejects patterns whose residual predicate references unknown
// variables (typos would otherwise silently become Null comparisons).
func (p *Pattern) validate() error {
	for _, n := range expr.Names(p.Global) {
		parts := n
		if len(parts) >= 2 && parts[0] == p.Name && p.Name != "" {
			parts = parts[1:]
		}
		head := parts[0]
		if _, ok := p.Motif.NodeByName(head); ok {
			continue
		}
		if _, ok := p.Motif.EdgeByName(head); ok {
			continue
		}
		if len(parts) == 1 {
			continue // graph attribute of the matched graph
		}
		return fmt.Errorf("pattern: %s: predicate references unknown variable %q", p.Name, head)
	}
	return nil
}

// Size returns the number of motif nodes.
func (p *Pattern) Size() int { return p.Motif.NumNodes() }

// Half is one motif edge seen from a pattern node: the edge, the opposite
// endpoint, and whether the edge is oriented out of the node (meaningful
// for directed motifs). A self-loop appears once, as outgoing.
type Half struct {
	Edge graph.EdgeID
	To   graph.NodeID
	Out  bool
}

// Halves returns, for every pattern node u, the motif half-edges incident
// to u, built once by Compile. The table is shared by every evaluation of
// the pattern and must be treated as read-only.
func (p *Pattern) Halves() [][]Half { return p.halves }

// Shape returns the canonical planning shape Compile rendered: motif
// direction, per-node tag and predicate (which subsumes constant label
// constraints — they are `label == "X"` conjuncts), edge wiring with
// per-edge predicates, and the residual global predicate. Patterns that
// differ only in formatting or construction order of their source text
// share a shape; anything that could change feasible mates or the cost
// model changes it. An uncompiled pattern has the empty shape.
func (p *Pattern) Shape() string { return p.shape }

// renderShape builds the string Shape returns.
func (p *Pattern) renderShape() string {
	var b strings.Builder
	if p.Motif.Directed {
		b.WriteString("D")
	} else {
		b.WriteString("U")
	}
	for _, n := range p.Motif.Nodes() {
		b.WriteString("\x00n")
		b.WriteString(p.NodeTag[n.ID])
		b.WriteByte('\x01')
		if e := p.NodePred[n.ID]; e != nil {
			b.WriteString(e.String())
		}
	}
	for _, e := range p.Motif.Edges() {
		fmt.Fprintf(&b, "\x00e%d>%d\x01", e.From, e.To)
		if x := p.EdgePred[e.ID]; x != nil {
			b.WriteString(x.String())
		}
	}
	if p.Global != nil {
		b.WriteString("\x00g")
		b.WriteString(p.Global.String())
	}
	return b.String()
}

// WhereSource renders the construction-time predicates (AddNode/AddEdge
// where clauses, already qualified with their element names, plus every
// Where call) as one parseable expression — the pattern's predicate "by
// source text" for the multi-process wire protocol. Tuple-derived equality
// conjuncts are NOT included: the wire carries the tuples themselves, and
// the receiving side's Compile re-derives identical conjuncts in identical
// order, so a round-tripped pattern compiles to the same plan inputs as
// the original. Returns "" when the pattern has no predicates.
func (p *Pattern) WhereSource() string {
	e := expr.And(p.where...)
	if e == nil {
		return ""
	}
	return e.String()
}

// tupleEnv resolves bare attribute names against one tuple. It is a named
// pointer type so converting it to expr.Env stores the tuple pointer
// directly in the interface word — the per-candidate predicate check
// allocates nothing. A nil receiver (node without attributes) resolves
// every name to Null, matching Tuple.GetOr.
type tupleEnv graph.Tuple

// Resolve implements expr.Env.
func (t *tupleEnv) Resolve(parts []string) (graph.Value, error) {
	if len(parts) != 1 {
		return graph.Null, fmt.Errorf("pattern: qualified name %v in element-local predicate", parts)
	}
	return (*graph.Tuple)(t).GetOr(parts[0]), nil
}

// NodeMatches reports whether data node (tuple) v satisfies pattern node u's
// tag and local predicate — the feasible-mate test F_u(v) of Definition 4.8.
// On a compiled pattern the predicate runs in its closure form; an
// uncompiled pattern (predicates attached after Compile) falls back to the
// tree walk so the test stays total.
func (p *Pattern) NodeMatches(u graph.NodeID, attrs *graph.Tuple) (bool, error) {
	if tag := p.NodeTag[u]; tag != "" {
		if attrs == nil || attrs.Tag != tag {
			return false, nil
		}
	}
	if int(u) < len(p.nodePredC) {
		if pred := p.nodePredC[u]; pred != nil {
			return pred((*tupleEnv)(attrs))
		}
		return true, nil
	}
	return expr.Holds(p.NodePred[u], (*tupleEnv)(attrs))
}

// EdgeMatches reports whether a data edge's attributes satisfy pattern edge
// e's local predicate F_e.
func (p *Pattern) EdgeMatches(e graph.EdgeID, attrs *graph.Tuple) (bool, error) {
	if int(e) < len(p.edgePredC) {
		if pred := p.edgePredC[e]; pred != nil {
			return pred((*tupleEnv)(attrs))
		}
		return true, nil
	}
	return expr.Holds(p.EdgePred[e], (*tupleEnv)(attrs))
}

// GlobalHolds evaluates the residual graph-wide predicate under env (a
// complete binding), using the compiled form when available. A nil Global
// holds trivially.
func (p *Pattern) GlobalHolds(env expr.Env) (bool, error) {
	if p.globalC != nil {
		return p.globalC(env)
	}
	return expr.Holds(p.Global, env)
}

// GraphHolds evaluates the graph gate of a compiled pattern against a member
// graph's attributes: the conjunction of Global's graph conjuncts. When it
// is false or errors, no binding of that graph can satisfy Global (a false
// conjunct, or an error the residual check would drop), so the member has
// no mappings. A pattern without graph conjuncts holds trivially.
func (p *Pattern) GraphHolds(attrs *graph.Tuple) (bool, error) {
	if p.graphC == nil {
		return true, nil
	}
	return p.graphC((*tupleEnv)(attrs))
}

// String renders the pattern motif plus its full predicate: pushed-down
// node and edge conjuncts are requalified with their element names and
// conjoined with the residual graph-wide predicate, so the printed form is
// semantically complete.
func (p *Pattern) String() string {
	s := p.Motif.String()
	var parts []expr.Expr
	for _, n := range p.Motif.Nodes() {
		if e := p.NodePred[n.ID]; e != nil {
			parts = append(parts, qualify(e, n.Name))
		}
	}
	for _, ed := range p.Motif.Edges() {
		if e := p.EdgePred[ed.ID]; e != nil {
			parts = append(parts, qualify(e, ed.Name))
		}
	}
	parts = append(parts, p.Global)
	if full := expr.And(parts...); full != nil {
		s += " where " + full.String()
	}
	return s
}
