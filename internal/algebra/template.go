package algebra

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
)

// Template is a graph template (Definition 4.4): formal parameters that are
// patterns (or plain graph variables) and a body that constructs a new
// graph by embedding operand graphs, copying bound nodes, declaring fresh
// nodes and edges with computed attributes, and unifying nodes.
type Template struct {
	// Name names the constructed graph.
	Name string
	// Tag and Attrs compute the constructed graph's own tuple.
	Tag   string
	Attrs []AttrTemplate
	// Members are executed in order.
	Members []TMember
}

// AttrTemplate computes one attribute value from the parameter bindings.
type AttrTemplate struct {
	Name string
	E    expr.Expr
}

// TMember is one template body declaration.
type TMember interface{ isTMember() }

// TGraph embeds the whole graph bound to Var into the result.
type TGraph struct{ Var string }

// TNode declares a result node: either a fresh node (Name, attribute
// templates) or a copy of a bound node (Ref, e.g. ["P","v1"]).
type TNode struct {
	Name  string   // local name; optional for Ref nodes
	Ref   []string // non-nil: copy the node bound to this qualified name
	Tag   string
	Attrs []AttrTemplate
}

// TEdge declares a result edge between two node references (local names or
// qualified references).
type TEdge struct {
	Name     string
	From, To []string
	Tag      string
	Attrs    []AttrTemplate
}

// TUnify merges node A into node B (or a node of B's embedded graph chosen
// by Where). Unifying end nodes also unifies duplicate edges (§2.1).
type TUnify struct {
	A, B  []string
	Where expr.Expr
}

func (TGraph) isTMember() {}
func (TNode) isTMember()  {}
func (TEdge) isTMember()  {}
func (TUnify) isTMember() {}

// Operand is an actual parameter: a matched graph (pattern binding) or a
// plain graph.
type Operand struct {
	Matched *MatchedGraph
	Graph   *graph.Graph
}

// MatchedOperand wraps a matched graph.
func MatchedOperand(m *MatchedGraph) Operand { return Operand{Matched: m} }

// GraphOperand wraps a plain graph.
func GraphOperand(g *graph.Graph) Operand { return Operand{Graph: g} }

// instantiation carries the state of one template application.
type instantiation struct {
	t    *Template
	args map[string]Operand
	out  *graph.Graph
	// byKey maps resolution keys ("local:v1", "P.v1", "C.v2") to result
	// node IDs. Unification rewrites entries in place.
	byKey map[string]graph.NodeID
	// merged maps a result node to its unification representative.
	merged map[graph.NodeID]graph.NodeID
}

// Instantiate applies the template to the given bindings and returns the
// constructed graph: T_P1..Pk(G1, ..., Gk).
func (t *Template) Instantiate(args map[string]Operand) (*graph.Graph, error) {
	ins, err := t.expand(args)
	if err != nil {
		return nil, err
	}
	out := ins.compact()
	if err := out.Err(); err != nil {
		return nil, fmt.Errorf("algebra: template %s: %w", t.Name, err)
	}
	return out, nil
}

// expand applies every template member to the bindings, leaving the result
// in ins.out before compaction.
func (t *Template) expand(args map[string]Operand) (*instantiation, error) {
	ins := &instantiation{
		t:      t,
		args:   args,
		out:    graph.New(t.Name),
		byKey:  make(map[string]graph.NodeID),
		merged: make(map[graph.NodeID]graph.NodeID),
	}
	env := templateEnv{ins: ins}
	if t.Tag != "" || len(t.Attrs) > 0 {
		tp := graph.NewTuple(t.Tag)
		for _, a := range t.Attrs {
			v, err := a.E.Eval(env)
			if err != nil {
				return nil, fmt.Errorf("algebra: template %s attr %s: %w", t.Name, a.Name, err)
			}
			tp.Set(a.Name, v)
		}
		ins.out.Attrs = tp
	}
	for _, m := range t.Members {
		var err error
		switch x := m.(type) {
		case TGraph:
			err = ins.embedGraph(x)
		case TNode:
			err = ins.addNode(x, env)
		case TEdge:
			err = ins.addEdge(x, env)
		case TUnify:
			err = ins.unify(x)
		default:
			err = fmt.Errorf("algebra: unknown template member %T", m)
		}
		if err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// rep follows unification links to the representative node.
func (ins *instantiation) rep(v graph.NodeID) graph.NodeID {
	for { // union-find link chase; merged is acyclic by construction, depth bounded by node count
		w, ok := ins.merged[v]
		if !ok {
			return v
		}
		v = w
	}
}

// embedGraph copies every node and edge of the operand into the result.
// Node keys "Var.name" allow later references and unification.
func (ins *instantiation) embedGraph(m TGraph) error {
	op, ok := ins.args[m.Var]
	if !ok {
		return fmt.Errorf("algebra: template references unbound graph %s", m.Var)
	}
	src := op.Graph
	nodeAttrs := func(n graph.Node) *graph.Tuple { return n.Attrs }
	edgeAttrs := func(e graph.Edge) *graph.Tuple { return e.Attrs }
	if src == nil {
		mg := op.Matched
		if mg == nil {
			return fmt.Errorf("algebra: operand %s is empty", m.Var)
		}
		// A matched operand embeds its InducedGraph view — the motif, each
		// element carrying its binding's attributes — without
		// materializing that graph first.
		src = mg.P.Motif
		nodeAttrs = func(n graph.Node) *graph.Tuple { return mg.G.Node(mg.M.Nodes[n.ID]).Attrs }
		edgeAttrs = func(e graph.Edge) *graph.Tuple { return mg.G.Edge(mg.M.Edges[e.ID]).Attrs }
	}
	idMap := make([]graph.NodeID, src.NumNodes())
	for _, n := range src.Nodes() {
		nid := ins.out.AddNode(ins.freshName(n.Name), nodeAttrs(n).Clone())
		idMap[n.ID] = nid
		ins.byKey[m.Var+"."+n.Name] = nid
	}
	for _, e := range src.Edges() {
		ins.out.AddEdge("", idMap[e.From], idMap[e.To], edgeAttrs(e).Clone())
	}
	return nil
}

// freshName returns name, suffixed if already taken in the result.
func (ins *instantiation) freshName(name string) string {
	if _, taken := ins.out.NodeByName(name); !taken {
		return name
	}
	// The suffix keeps names valid identifiers so results re-parse.
	for i := 2; ; i++ { // terminates at the first free suffix; bounded by result node count
		c := name + "_" + strconv.Itoa(i)
		if _, taken := ins.out.NodeByName(c); !taken {
			return c
		}
	}
}

// addNode declares a fresh node or copies a bound one.
func (ins *instantiation) addNode(m TNode, env expr.Env) error {
	if m.Ref != nil {
		key := strings.Join(m.Ref, ".")
		if _, dup := ins.byKey[key]; dup {
			return nil // already copied (e.g. declared twice)
		}
		if len(m.Ref) != 2 {
			return fmt.Errorf("algebra: bad node reference %s", key)
		}
		op, ok := ins.args[m.Ref[0]]
		if !ok {
			return fmt.Errorf("algebra: node reference to unbound %s", m.Ref[0])
		}
		var src *graph.Node
		switch {
		case op.Matched != nil:
			n, err := op.Matched.NodeFor(m.Ref[1])
			if err != nil {
				return err
			}
			src = n
		case op.Graph != nil:
			id, ok := op.Graph.NodeByName(m.Ref[1])
			if !ok {
				return fmt.Errorf("algebra: graph %s has no node %s", m.Ref[0], m.Ref[1])
			}
			src = op.Graph.Node(id)
		}
		name := m.Name
		if name == "" {
			name = ins.freshName(m.Ref[0] + "_" + m.Ref[1])
		}
		nid := ins.out.AddNode(ins.freshName(name), src.Attrs.Clone())
		ins.byKey[key] = nid
		if m.Name != "" {
			ins.byKey["local:"+m.Name] = nid
		}
		return nil
	}
	tp := graph.NewTuple(m.Tag)
	for _, a := range m.Attrs {
		v, err := a.E.Eval(env)
		if err != nil {
			return fmt.Errorf("algebra: node %s attr %s: %w", m.Name, a.Name, err)
		}
		tp.Set(a.Name, v)
	}
	nid := ins.out.AddNode(ins.freshName(m.Name), tp)
	ins.byKey["local:"+m.Name] = nid
	return nil
}

// resolveNode maps a node reference to a result node.
func (ins *instantiation) resolveNode(ref []string) (graph.NodeID, error) {
	key := strings.Join(ref, ".")
	if len(ref) == 1 {
		if id, ok := ins.byKey["local:"+ref[0]]; ok {
			return ins.rep(id), nil
		}
		if id, ok := ins.out.NodeByName(ref[0]); ok {
			return ins.rep(id), nil
		}
		return 0, fmt.Errorf("algebra: unknown node %s in template", ref[0])
	}
	if id, ok := ins.byKey[key]; ok {
		return ins.rep(id), nil
	}
	// Implicit copy on first reference (a convenience: edges may mention
	// bound nodes without a prior node declaration).
	if err := ins.addNode(TNode{Ref: ref}, templateEnv{ins: ins}); err != nil {
		return 0, err
	}
	return ins.rep(ins.byKey[key]), nil
}

func (ins *instantiation) addEdge(m TEdge, env expr.Env) error {
	from, err := ins.resolveNode(m.From)
	if err != nil {
		return err
	}
	to, err := ins.resolveNode(m.To)
	if err != nil {
		return err
	}
	tp := graph.NewTuple(m.Tag)
	for _, a := range m.Attrs {
		v, err := a.E.Eval(env)
		if err != nil {
			return fmt.Errorf("algebra: edge %s attr %s: %w", m.Name, a.Name, err)
		}
		tp.Set(a.Name, v)
	}
	if tp.Len() == 0 && tp.Tag == "" {
		ins.out.AddEdge("", from, to, nil)
	} else {
		ins.out.AddEdge("", from, to, tp)
	}
	return nil
}

// unify merges node A into node B. When B's reference does not name a
// concrete node, it ranges over the nodes of B's embedded operand graph and
// the first node satisfying Where is chosen; no satisfying node leaves A
// unmerged (the Figure 4.12 semantics: a new author node stays if no
// existing author has the same name).
func (ins *instantiation) unify(m TUnify) error {
	a, err := ins.resolveNode(m.A)
	if err != nil {
		return err
	}
	bKey := strings.Join(m.B, ".")
	if id, ok := ins.byKey[bKey]; ok {
		return ins.mergeNodes(a, ins.rep(id))
	}
	if len(m.B) == 1 {
		if id, ok := ins.byKey["local:"+m.B[0]]; ok {
			return ins.mergeNodes(a, ins.rep(id))
		}
	}
	// Variable unification over an embedded operand's nodes, in a
	// deterministic (node ID) order.
	if len(m.B) == 2 {
		if _, isOperand := ins.args[m.B[0]]; isOperand {
			prefix := m.B[0] + "."
			var cands []graph.NodeID
			for key, id := range ins.byKey {
				if strings.HasPrefix(key, prefix) {
					cands = append(cands, id)
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
			for _, id := range cands {
				cand := ins.rep(id)
				if cand == ins.rep(a) {
					continue
				}
				ok, err := ins.unifyWhereHolds(m, a, cand)
				if err != nil {
					return err
				}
				if ok {
					return ins.mergeNodes(a, cand)
				}
			}
			return nil // no unification target: A stays a distinct node
		}
	}
	return fmt.Errorf("algebra: unify target %s not found", bKey)
}

// unifyWhereHolds evaluates the unify predicate with A bound to node a and
// the B variable bound to candidate node.
func (ins *instantiation) unifyWhereHolds(m TUnify, a, cand graph.NodeID) (bool, error) {
	if m.Where == nil {
		return true, nil
	}
	env := unifyEnv{
		ins:   ins,
		aName: strings.Join(m.A, "."),
		bName: strings.Join(m.B, "."),
		a:     a,
		b:     cand,
	}
	return expr.Holds(m.Where, env)
}

// mergeNodes redirects a to b. Attributes of b win; missing ones are copied
// from a.
func (ins *instantiation) mergeNodes(a, b graph.NodeID) error {
	a, b = ins.rep(a), ins.rep(b)
	if a == b {
		return nil
	}
	bAttrs := ins.out.Node(b).Attrs
	aAttrs := ins.out.Node(a).Attrs
	if aAttrs != nil {
		if bAttrs == nil {
			bAttrs = graph.NewTuple(aAttrs.Tag)
			ins.out.Node(b).Attrs = bAttrs
		}
		for i := 0; i < aAttrs.Len(); i++ {
			at := aAttrs.At(i)
			if _, has := bAttrs.Get(at.Name); !has {
				bAttrs.Set(at.Name, at.Val)
			}
		}
	}
	ins.merged[a] = b
	return nil
}

// compact rebuilds the result graph: merged nodes are dropped, edges are
// redirected to representatives, and duplicate edges (same endpoints and
// equal attributes) are unified, per §2.1.
func (ins *instantiation) compact() *graph.Graph {
	if ins.compacted() {
		return ins.out
	}
	return ins.rebuild()
}

// rebuild is compact's general case: a fresh graph without the merged
// nodes and the duplicate edges.
func (ins *instantiation) rebuild() *graph.Graph {
	out := graph.New(ins.t.Name)
	out.Directed = ins.out.Directed
	out.Attrs = ins.out.Attrs
	remap := make([]graph.NodeID, ins.out.NumNodes())
	for i := range remap {
		remap[i] = graph.NoNode
	}
	for _, n := range ins.out.Nodes() {
		if ins.rep(n.ID) != n.ID {
			continue
		}
		remap[n.ID] = out.AddNode(n.Name, n.Attrs)
	}
	type edgeKey struct {
		u, v graph.NodeID
		sig  string
	}
	seen := make(map[edgeKey]bool)
	for _, e := range ins.out.Edges() {
		u := remap[ins.rep(e.From)]
		v := remap[ins.rep(e.To)]
		if !out.Directed && u > v {
			u, v = v, u
		}
		k := edgeKey{u, v, e.Attrs.String()}
		if seen[k] {
			continue
		}
		seen[k] = true
		out.AddEdge("", u, v, e.Attrs)
	}
	return out
}

// compacted reports that compact would rebuild ins.out unchanged, so the
// rebuild can be skipped: no node was merged, the graph recorded no
// construction error, every edge already runs from its lower node ID (the
// rebuild orders undirected endpoints), and no two edges join the same
// pair, so none can duplicate another. Every edge of ins.out carries its
// automatic name, and with nothing dropped the rebuild would give each the
// same one.
func (ins *instantiation) compacted() bool {
	g := ins.out
	if len(ins.merged) > 0 || g.Err() != nil {
		return false
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if e.From > e.To || len(g.EdgesBetween(e.From, e.To)) > 1 {
			return false
		}
	}
	return true
}

// templateEnv resolves attribute-template expressions against the operand
// bindings: P.v1.name (matched node attr), P.attr (operand graph attr),
// C.v2.name (embedded graph node attr).
type templateEnv struct{ ins *instantiation }

// Resolve implements expr.Env.
func (e templateEnv) Resolve(parts []string) (graph.Value, error) {
	if len(parts) >= 2 {
		if op, ok := e.ins.args[parts[0]]; ok {
			if op.Matched != nil {
				return op.Matched.Resolve(parts[1:])
			}
			if op.Graph != nil {
				if len(parts) == 2 {
					return op.Graph.Attrs.GetOr(parts[1]), nil
				}
				if id, ok := op.Graph.NodeByName(parts[1]); ok {
					return op.Graph.Node(id).Attrs.GetOr(parts[2]), nil
				}
				if id, ok := op.Graph.EdgeByName(parts[1]); ok {
					return op.Graph.Edge(id).Attrs.GetOr(parts[2]), nil
				}
			}
		}
	}
	return graph.Null, fmt.Errorf("algebra: cannot resolve %v in template", parts)
}

// unifyEnv resolves a unify-clause predicate: the A name and B name map to
// the two candidate result nodes, everything else falls back to operands.
type unifyEnv struct {
	ins          *instantiation
	aName, bName string
	a, b         graph.NodeID
}

// Resolve implements expr.Env.
func (e unifyEnv) Resolve(parts []string) (graph.Value, error) {
	full := strings.Join(parts, ".")
	if strings.HasPrefix(full, e.aName+".") {
		attr := full[len(e.aName)+1:]
		return e.ins.out.Node(e.ins.rep(e.a)).Attrs.GetOr(attr), nil
	}
	if strings.HasPrefix(full, e.bName+".") {
		attr := full[len(e.bName)+1:]
		return e.ins.out.Node(e.ins.rep(e.b)).Attrs.GetOr(attr), nil
	}
	return templateEnv{ins: e.ins}.Resolve(parts)
}
