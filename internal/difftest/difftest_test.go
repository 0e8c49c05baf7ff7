// Package difftest is the differential oracle for §3.5's claim that one
// graph pattern is at once a GraphQL selection, an SQL multi-join and a
// Datalog rule. On seeded random graphs from internal/gen and connected
// label patterns drawn from them, these return one deduplicated set of
// (member, node-ID tuple) answers:
//
//   - match.Find under every option set, with and without an index;
//   - store.Coordinator over a multi-member document at every shard,
//     path-index, worker and selector setting;
//   - sqlbase.MatchPattern (the Figure 4.2 multi-join);
//   - datalog.PatternToRule + Eval (Figures 4.14 and 4.15).
//
// Patterns with node predicates go to match and Datalog only: the SQL V/E
// encoding holds labels, not other attributes. Two metamorphic checks
// (renaming node IDs, inserting an edge) and Theorem 4.5's relational side
// (theorem45_test.go) complete the package. It holds only tests.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gqldb/internal/datalog"
	"gqldb/internal/expr"
	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
	"gqldb/internal/sqlbase"
	"gqldb/internal/store"
)

// answers is a deduplicated answer set. A pattern's answer is keyed by the
// member ordinal and the data nodes bound to the pattern's nodes in
// declaration order; a relational answer by its row.
type answers map[string]bool

func (a answers) add(member int, nodes []graph.NodeID) { a[fmt.Sprint(member, nodes)] = true }

// diff describes how got differs from want, or returns "" when they agree.
func diff(want, got answers) string {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("%d answers, want %d; missing %s; extra %s",
		len(got), len(want), head(missing), head(extra))
}

func head(keys []string) string {
	if len(keys) > 3 {
		keys = append(keys[:3:3], "...")
	}
	return "[" + strings.Join(keys, "; ") + "]"
}

// engine evaluates a pattern over every member of a collection.
type engine struct {
	name string
	run  func(p *pattern.Pattern) (answers, error)
}

// matchOptions are the option sets match.Find must agree under.
var matchOptions = []struct {
	name string
	opt  match.Options
}{
	{"baseline", match.Baseline()},
	{"optimized", match.Optimized()},
	{"prune-subgraph", match.Options{Exhaustive: true, Prune: match.PruneSubgraph}},
	{"order-dp", match.Options{Exhaustive: true, Order: match.OrderDP}},
	{"adj-iterate", match.Options{Exhaustive: true, AdjIterate: true}},
	{"refine-level-1", match.Options{Exhaustive: true, Refine: true, RefineLevel: 1}},
}

// matchEngines is match.Find under every option set, each without an
// index and with a radius-1 index that materializes neighborhood subgraphs.
func matchEngines(coll graph.Collection) []engine {
	ixs := make([]*match.Index, len(coll))
	for i, g := range coll {
		ixs[i] = match.BuildIndex(g, 1, true)
	}
	var out []engine
	for _, mo := range matchOptions {
		for _, indexed := range []bool{false, true} {
			opt := mo.opt
			name := "match/" + mo.name
			if indexed {
				name += "+index"
			}
			out = append(out, engine{name, func(p *pattern.Pattern) (answers, error) {
				a := answers{}
				for i, g := range coll {
					var ix *match.Index
					if indexed {
						ix = ixs[i]
					}
					ms, _, err := match.Find(p, g, ix, opt)
					if err != nil {
						return nil, err
					}
					for _, m := range ms {
						a.add(i, m.Nodes)
					}
				}
				return a, nil
			}})
		}
	}
	return out
}

// storeEngines is store.Coordinator over the collection as one document,
// for every shard count, path-index length, worker count and selector. It
// also returns how many members the store keeps a §4 index for.
func storeEngines(coll graph.Collection) ([]engine, int) {
	ord := make(map[*graph.Graph]int, len(coll))
	for i, g := range coll {
		ord[g] = i
	}
	var out []engine
	indexed := 0
	for _, shards := range []int{1, 4} {
		for _, ixLen := range []int{0, 3} {
			b := store.NewDocBuilder("D", shards, ixLen)
			for _, g := range coll {
				b.Add(g)
			}
			d := b.Build()
			indexed = 0
			for i := range coll {
				if d.MemberIndex(i) != nil {
					indexed++
				}
			}
			for _, workers := range []int{1, 4} {
				for _, sel := range []store.ShardSelector{nil, store.LocalSelector{}} {
					co := &store.Coordinator{Selector: sel}
					name := fmt.Sprintf("store/shards=%d,index=%d,workers=%d,selector=%v", shards, ixLen, workers, sel != nil)
					out = append(out, engine{name, func(p *pattern.Pattern) (answers, error) {
						ms, err := co.Select(context.Background(), d, p, match.Options{Exhaustive: true}, nil, workers, nil)
						if err != nil {
							return nil, err
						}
						a := answers{}
						for _, m := range ms {
							a.add(ord[m.G], m.M.Nodes)
						}
						return a, nil
					}})
				}
			}
		}
	}
	return out, indexed
}

// sqlEngine is sqlbase.MatchPattern over each member stored as V and E.
func sqlEngine(coll graph.Collection) (engine, error) {
	dbs := make([]*sqlbase.DB, len(coll))
	for i, g := range coll {
		dbs[i] = sqlbase.NewDB()
		if err := dbs[i].LoadGraph(g); err != nil {
			return engine{}, err
		}
	}
	return engine{"sqlbase", func(p *pattern.Pattern) (answers, error) {
		a := answers{}
		for i, db := range dbs {
			rows, err := db.MatchPattern(p, 0)
			if err != nil {
				return nil, err
			}
			for _, row := range rows {
				nodes := make([]graph.NodeID, len(row))
				for j, v := range row {
					nodes[j] = graph.NodeID(v.AsInt())
				}
				a.add(i, nodes)
			}
		}
		return a, nil
	}}, nil
}

// datalogEngine translates each member to facts and the pattern to one rule
// whose head is Hit(G, V1, ..., Vk), and evaluates it on fresh facts.
func datalogEngine(coll graph.Collection) engine {
	return engine{"datalog", func(p *pattern.Pattern) (answers, error) {
		rule, err := datalog.PatternToRule(p, "Hit")
		if err != nil {
			return nil, err
		}
		a := answers{}
		for i, g := range coll {
			node := make(map[string]graph.NodeID, g.NumNodes())
			for _, n := range g.Nodes() {
				node[g.Name+"."+n.Name] = n.ID
			}
			db := datalog.NewDB()
			datalog.GraphToFacts(db, g)
			if _, err := datalog.Eval(db, []datalog.Rule{rule}); err != nil {
				return nil, err
			}
			for _, fact := range db.Facts("Hit") {
				nodes := make([]graph.NodeID, len(fact)-1)
				for j, v := range fact[1:] {
					id, ok := node[v.AsString()]
					if !ok {
						return nil, fmt.Errorf("datalog: unknown node constant %s", v)
					}
					nodes[j] = id
				}
				a.add(i, nodes)
			}
		}
		return a, nil
	}}
}

// copyGraph copies g into a fresh graph of the given directedness in which
// g's node v becomes node perm[v] (perm nil keeps every ID). Node names
// follow the new IDs, attribute tuples are cloned, and extra edges are
// appended after g's.
func copyGraph(g *graph.Graph, directed bool, perm []graph.NodeID, extra ...[2]graph.NodeID) *graph.Graph {
	out := graph.New(g.Name)
	out.Directed = directed
	n := g.NumNodes()
	if perm == nil {
		perm = make([]graph.NodeID, n)
		for v := range perm {
			perm[v] = graph.NodeID(v)
		}
	}
	inv := make([]graph.NodeID, n)
	for v, w := range perm {
		inv[w] = graph.NodeID(v)
	}
	for _, v := range inv {
		out.AddNode("", g.Node(v).Attrs.Clone())
	}
	for _, e := range g.Edges() {
		out.AddEdge("", perm[e.From], perm[e.To], e.Attrs.Clone())
	}
	for _, e := range extra {
		out.AddEdge("", perm[e[0]], perm[e[1]], nil)
	}
	return out
}

// shape sizes one trial's collection.
type shape struct {
	members  int  // small members, 4 to maxNodes nodes each
	maxNodes int  // at least 4
	big      int  // when positive, one more member of this many nodes
	directed bool // every member's directedness
}

// collection draws the members of sh as seeded Erdős–Rényi graphs with Zipf
// labels: three to five labels on a small member, and on the big one
// (first in the collection) six to eight labels and fewer edges per node,
// which keeps the Datalog join over it affordable. Every node also carries
// an integer attribute w in [0, 5) for node-predicate patterns. A directed
// member keeps the generator's random orientation and doubles one edge in
// five into a 2-cycle.
func collection(rng *rand.Rand, sh shape) graph.Collection {
	var coll graph.Collection
	add := func(n, m, labels int) {
		er := gen.ER(n, m, labels, rng.Int63())
		var back [][2]graph.NodeID
		if sh.directed {
			for _, e := range er.Edges() {
				if rng.Intn(5) == 0 {
					back = append(back, [2]graph.NodeID{e.To, e.From})
				}
			}
		}
		g := copyGraph(er, sh.directed, nil, back...)
		// A random suffix spreads members over the store's shards: with
		// names m0 to m5 alone, four shards receive members on 0 and 2 only.
		g.Name = fmt.Sprintf("m%d-%x", len(coll), rng.Uint32())
		for _, nd := range g.Nodes() {
			nd.Attrs.Set("w", graph.Int(int64(rng.Intn(5))))
		}
		coll = append(coll, g)
	}
	if sh.big > 0 {
		add(sh.big, sh.big+rng.Intn(sh.big/2+1), 6+rng.Intn(3))
	}
	for i := 0; i < sh.members; i++ {
		n := 4 + rng.Intn(sh.maxNodes-3)
		add(n, n+rng.Intn(2*n), 3+rng.Intn(3))
	}
	return coll
}

// neighbors lists v's neighbors in either direction.
func neighbors(g *graph.Graph, v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, h := range g.Adj(v) {
		out = append(out, h.To)
	}
	if g.Directed {
		for _, h := range g.InAdj(v) {
			out = append(out, h.To)
		}
	}
	return out
}

// connectedPattern grows a random connected set of size nodes of g by
// random walk steps from a random node and returns it as a label pattern:
// every pair joined by the walk gets its data edges as pattern edges
// (oriented as in g when g is directed), and every other adjacent pair
// keeps its edges with probability 1/2. With probability 1/4 one node's
// label is redrawn from the first five labels, so some patterns have no
// answer. When nodePreds is set, every node also gets a random comparison
// on w. When partial is set, 1 to size-1 random nodes carry no label
// constraint. It returns nil when no connected set of that size is found.
func connectedPattern(g *graph.Graph, size int, rng *rand.Rand, nodePreds, partial bool) *pattern.Pattern {
	for attempt := 0; attempt < 20; attempt++ {
		sel := []graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes()))}
		pos := map[graph.NodeID]int{sel[0]: 0}
		tree := map[[2]int]bool{}
		for step := 0; len(sel) < size && step < 8*size; step++ {
			i := rng.Intn(len(sel))
			nbrs := neighbors(g, sel[i])
			if len(nbrs) == 0 {
				continue
			}
			w := nbrs[rng.Intn(len(nbrs))]
			if _, ok := pos[w]; ok {
				continue
			}
			pos[w] = len(sel)
			tree[[2]int{i, len(sel)}] = true
			sel = append(sel, w)
		}
		if len(sel) < size {
			continue
		}
		p := pattern.New("Q")
		p.Motif.Directed = g.Directed
		relabel := -1
		if rng.Intn(4) == 0 {
			relabel = rng.Intn(size)
		}
		bare := map[int]bool{}
		if partial {
			for _, i := range rng.Perm(size)[:1+rng.Intn(size-1)] {
				bare[i] = true
			}
		}
		for i, v := range sel {
			label := g.Label(v)
			if i == relabel {
				label = gen.LabelName(rng.Intn(5))
			}
			var where expr.Expr
			if nodePreds {
				where = expr.Binary{Op: cmpOps[rng.Intn(len(cmpOps))], L: expr.Name{Parts: []string{"w"}}, R: expr.Lit{Val: graph.Int(int64(rng.Intn(5)))}}
			}
			var attrs *graph.Tuple
			if !bare[i] {
				attrs = graph.TupleOf("", "label", label)
			}
			p.AddNode("", attrs, where)
		}
		keep, added := map[[2]int]bool{}, map[[2]int]bool{}
		for i, v := range sel {
			for _, h := range g.Adj(v) {
				j, ok := pos[h.To]
				if !ok || j == i || (!g.Directed && j < i) {
					continue
				}
				pair := [2]int{min(i, j), max(i, j)}
				decided, seen := keep[pair]
				if !seen {
					decided = tree[pair] || rng.Intn(2) == 0
					keep[pair] = decided
				}
				if arc := [2]int{i, j}; decided && !added[arc] {
					added[arc] = true
					p.AddEdge("", graph.NodeID(i), graph.NodeID(j), nil, nil)
				}
			}
		}
		return p
	}
	return nil
}

// cmpOps are the comparisons every engine here translates.
var cmpOps = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// outcome counts what one trial exercised, so a run that agrees only on
// empty answers or never reaches an indexed member is caught.
type outcome struct {
	answers int // size of the label pattern's answer set
	indexed int // members large enough for the store's §4 index
}

// trial draws a collection and one label pattern (partially labelled when
// partial is set) and one node-predicate pattern from seed, and reports
// every engine that disagrees with the baseline matcher through t.
func trial(t testing.TB, seed int64, sh shape, partial bool) outcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coll := collection(rng, sh)
	from := coll[rng.Intn(len(coll))]
	label := connectedPattern(from, 2+rng.Intn(4), rng, false, partial)
	withPreds := connectedPattern(from, 2+rng.Intn(4), rng, true, false)
	if label == nil || withPreds == nil {
		return outcome{}
	}
	ms := matchEngines(coll)
	sql, err := sqlEngine(coll)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	dl := datalogEngine(coll)
	st, indexed := storeEngines(coll)
	want := compare(t, seed, label, append(append(ms, st...), sql, dl))
	compare(t, seed, withPreds, append(ms, dl))
	return outcome{answers: len(want), indexed: indexed}
}

// compare runs p through every engine and reports each answer set that
// differs from the first engine's, which it returns.
func compare(t testing.TB, seed int64, p *pattern.Pattern, engines []engine) answers {
	t.Helper()
	var want answers
	for i, e := range engines {
		got, err := e.run(p)
		if err != nil {
			t.Fatalf("seed %d, %s: %v\npattern: %s", seed, e.name, err, p)
		}
		if i == 0 {
			want = got
			continue
		}
		if d := diff(want, got); d != "" {
			t.Errorf("seed %d: %s disagrees with %s: %s\npattern: %s", seed, e.name, engines[0].name, d, p)
		}
	}
	return want
}

// TestEnginesAgree is the differential test proper: 120 seeded trials,
// alternating undirected and directed collections of two to five small
// members; every tenth trial adds a 140-node member, which the store serves
// with its per-member index, and every third trial's label pattern leaves
// some nodes unlabelled, which the store's path index must not prune on.
func TestEnginesAgree(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 12
	}
	answered, indexed := 0, 0
	for i := 0; i < trials; i++ {
		sh := shape{members: 2 + i%4, maxNodes: 24, directed: i%2 == 1}
		if i%10 == 9 {
			sh.big = 140
		}
		o := trial(t, int64(i), sh, i%3 == 2)
		if o.answers > 0 {
			answered++
		}
		indexed += o.indexed
	}
	t.Logf("%d of %d trials had a non-empty answer set; the store indexed %d members", answered, trials, indexed)
	if answered < trials/2 {
		t.Errorf("only %d of %d trials had a non-empty answer set", answered, trials)
	}
	if indexed == 0 && !testing.Short() {
		t.Error("the store indexed no member, so its §4 access methods went unchecked")
	}
}

// metamorphic is the matcher the metamorphic checks run: the baseline
// without an index and the optimized options with one.
var metamorphic = []struct {
	name    string
	indexed bool
	opt     match.Options
}{
	{"baseline", false, match.Baseline()},
	{"optimized+index", true, match.Optimized()},
}

// find returns the answer set of p in g as member 0, with each node ID
// first mapped through perm when perm is non-nil.
func find(t *testing.T, p *pattern.Pattern, g *graph.Graph, indexed bool, opt match.Options, perm []graph.NodeID) answers {
	t.Helper()
	var ix *match.Index
	if indexed {
		ix = match.BuildIndex(g, 1, true)
	}
	ms, _, err := match.Find(p, g, ix, opt)
	if err != nil {
		t.Fatal(err)
	}
	a := answers{}
	for _, m := range ms {
		nodes := m.Nodes
		if perm != nil {
			nodes = make([]graph.NodeID, len(m.Nodes))
			for j, v := range m.Nodes {
				nodes[j] = perm[v]
			}
		}
		a.add(0, nodes)
	}
	return a
}

// TestRenamingInvariance: permuting the data graph's node IDs maps the
// answer set bijectively onto the permuted graph's answers.
func TestRenamingInvariance(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 10
	}
	for i := 0; i < trials; i++ {
		seed := int64(1000 + i)
		rng := rand.New(rand.NewSource(seed))
		g := collection(rng, shape{members: 1, maxNodes: 40, directed: i%2 == 1})[0]
		p := connectedPattern(g, 2+rng.Intn(4), rng, false, false)
		if p == nil {
			continue
		}
		perm := make([]graph.NodeID, g.NumNodes())
		for v, w := range rng.Perm(g.NumNodes()) {
			perm[v] = graph.NodeID(w)
		}
		h := copyGraph(g, g.Directed, perm)
		for _, m := range metamorphic {
			want := find(t, p, g, m.indexed, m.opt, perm)
			if d := diff(want, find(t, p, h, m.indexed, m.opt, nil)); d != "" {
				t.Errorf("seed %d: %s after renaming: %s\npattern: %s", seed, m.name, d, p)
			}
		}
	}
}

// TestEdgeMonotonicity: inserting an edge never removes an answer.
func TestEdgeMonotonicity(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 10
	}
	for i := 0; i < trials; i++ {
		seed := int64(2000 + i)
		rng := rand.New(rand.NewSource(seed))
		g := collection(rng, shape{members: 1, maxNodes: 40, directed: i%2 == 1})[0]
		p := connectedPattern(g, 2+rng.Intn(4), rng, false, false)
		if p == nil {
			continue
		}
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes() - 1))
		if v >= u {
			v++
		}
		h := copyGraph(g, g.Directed, nil, [2]graph.NodeID{u, v})
		for _, m := range metamorphic {
			after := find(t, p, h, m.indexed, m.opt, nil)
			for a := range find(t, p, g, m.indexed, m.opt, nil) {
				if !after[a] {
					t.Errorf("seed %d: %s lost answer %s after inserting edge %d-%d\npattern: %s", seed, m.name, a, u, v, p)
				}
			}
		}
	}
}
