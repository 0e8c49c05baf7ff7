package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/pattern"
)

// clients is the closed-loop client count: one per core of the two-core
// box the bounds were calibrated on, so neither the generator nor the
// server queues behind the other.
const clients = 2

// The workload names. Later issues refer to them.
const (
	wlPPIClique   = "ppi_clique"
	wlCollCached  = "coll_cached"
	wlCollCluster = "coll_cluster"
	wlMutateMix   = "mutate_mix"
)

var workloadNames = []string{wlPPIClique, wlCollCached, wlCollCluster, wlMutateMix}

var venues = []string{"SIGMOD", "VLDB", "ICDE", "KDD"}

// sizes are the input dimensions. README.md records why each full-size
// value was chosen; quick shrinks them for the smoke test.
type sizes struct {
	// cliquesPerSize is the number of clique programs per pattern size 2–7.
	cliquesPerSize int
	// papers and authors size the DBLP-style collection.
	papers, authors int
	// collPrograms is the read population of coll_cached and coll_cluster;
	// mutPrograms that of mutate_mix (larger than the 256-entry cache).
	collPrograms, mutPrograms int
	// writesPerClient bounds the pre-generated mutation sequence.
	writesPerClient int
	// schedLen is the length of each client's op schedule.
	schedLen int
}

var fullSizes = sizes{
	cliquesPerSize: 100,
	papers:         2000, authors: 200,
	collPrograms: 64, mutPrograms: 512,
	writesPerClient: 8192,
	schedLen:        1 << 15,
}

var quickSizes = sizes{
	cliquesPerSize: 4,
	papers:         300, authors: 60,
	collPrograms: 16, mutPrograms: 32,
	writesPerClient: 2048,
	schedLen:        1 << 13,
}

// cliqueTake is the row cap of a ppi_clique request: the paper's harness
// stops a query at 1000 hits (§5.1).
const cliqueTake = 1000

// readOp is one read program with its pre-encoded request and the
// oracle's answer.
type readOp struct {
	src  string
	body []byte
	// wantRows and wantHash are filled by the oracle.
	wantRows int
	wantHash uint64
}

// mutationCounts are the per-kind counts of a /v2/mutate answer.
type mutationCounts struct {
	Mutations     int `json:"mutations"`
	GraphsCreated int `json:"graphs_created"`
	GraphsDropped int `json:"graphs_dropped"`
	NodesAdded    int `json:"nodes_added"`
	EdgesAdded    int `json:"edges_added"`
	NodesDeleted  int `json:"nodes_deleted"`
	EdgesDeleted  int `json:"edges_deleted"`
}

// writeOp is one mutation batch with the answer it must get and its
// effect on the set of scratch node names, which the crash check replays.
type writeOp struct {
	src  string
	body []byte
	want mutationCounts
	// adds and removes are scratch node names (their `name` attribute).
	adds, removes []string
}

// schedWrite marks a write slot in a schedule; other entries index reads.
const schedWrite = -1

// inputs is everything one workload run is made from. It is a pure
// function of (workload, seed, sizes).
type inputs struct {
	workload string
	doc      string
	// corpusPath is the generated corpus file the servers load.
	corpusPath string
	reads      []readOp
	// take is the row cap sent with every read (negative: none).
	take int
	// writes[c] is client c's mutation sequence, consumed in order.
	writes [clients][]writeOp
	// sched[c] is client c's op schedule, fixed before any window opens.
	sched [clients][]int32
}

// encodeQuery renders the JSON envelope of /v2/query and /v2/mutate.
func encodeQuery(src string, take int) []byte {
	env := struct {
		Query string `json:"query"`
		Take  *int   `json:"take,omitempty"`
	}{Query: src}
	if take >= 0 {
		env.Take = &take
	}
	b, err := json.Marshal(env)
	if err != nil {
		panic(err) // a string and an int always marshal
	}
	return b
}

// subSeed derives an independent stream per purpose from the run seed, so
// adding a draw to one generator never shifts another's.
func subSeed(seed int64, purpose string) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * 0x100000001B3
	}
	return int64(h >> 1)
}

// writeCorpus generates the workload's corpus and writes it under dir in
// the format its servers load: PPI is one large graph in a .tsv, DBLP a
// binary collection.
func writeCorpus(workload string, seed int64, sz sizes, dir string) (string, graph.Collection, error) {
	var buf bytes.Buffer
	var coll graph.Collection
	var path string
	var err error
	if workload == wlPPIClique {
		coll, path = graph.NewCollection(ppiNetwork(seed)), filepath.Join(dir, "ppi.tsv")
		err = graph.WriteTSV(&buf, coll[0])
	} else {
		coll, path = dblpCorpus(seed, sz), filepath.Join(dir, "dblp.bin")
		err = graph.WriteBinary(&buf, coll)
	}
	if err != nil {
		return "", nil, err
	}
	return path, coll, os.WriteFile(path, buf.Bytes(), 0o644)
}

// ppiNetworkSeed fixes the stand-in for the yeast protein interaction
// network. The paper's network is one real dataset and its queries are
// the random part; the same holds here.
const ppiNetworkSeed = 20080609

// ppiNetwork returns the stand-in network with its node IDs permuted by
// the seed: the same graph up to isomorphism, so the same matching work,
// but another corpus file, other candidate orders and other answers.
func ppiNetwork(seed int64) *graph.Graph {
	base := gen.YeastPPI(ppiNetworkSeed)
	perm := rand.New(rand.NewSource(subSeed(seed, "ppi-node-order"))).Perm(base.NumNodes())
	byNew := make([]graph.NodeID, len(perm))
	for old, nw := range perm {
		byNew[nw] = graph.NodeID(old)
	}
	g := graph.New(base.Name)
	for _, old := range byNew {
		g.AddNode("", base.Node(old).Attrs)
	}
	for _, e := range base.Edges() {
		g.AddEdge("", graph.NodeID(perm[e.From]), graph.NodeID(perm[e.To]), nil)
	}
	return g
}

// dblpCorpus is gen.DBLP made indexable and joinable: every author node
// also carries its name as `label` (the attribute internal/gindex keys
// on), and the authors of a paper are pairwise connected, so that
// co-authorship is an edge pattern and path features exist.
func dblpCorpus(seed int64, sz sizes) graph.Collection {
	coll := gen.DBLP(sz.papers, sz.authors, venues, subSeed(seed, "dblp"))
	for _, g := range coll {
		n := g.NumNodes()
		for i := 0; i < n; i++ {
			a := g.Node(graph.NodeID(i)).Attrs
			a.Set("label", a.GetOr("name"))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddEdge("", graph.NodeID(i), graph.NodeID(j), nil)
			}
		}
	}
	return coll
}

func authorName(rank int) string { return fmt.Sprintf("author%04d", rank) }

// coauthorProgram asks for every co-author of one author at one venue
// (from a first year on, when fromYear is positive) and returns an
// instantiated template per pair. The second node carries no label, so
// the path index cannot prune: every graph is verified.
func coauthorProgram(author, venue string, fromYear int) string {
	where := fmt.Sprintf("P.booktitle = %q", venue)
	if fromYear > 0 {
		where += fmt.Sprintf(" & P.year >= %d", fromYear)
	}
	return fmt.Sprintf(`graph P { node v1 <author label=%q>; node v2 <author>; edge e (v1, v2); } where %s;
for P exhaustive in doc("DBLP") return graph { node P.v1; node P.v2; edge e (P.v1, P.v2); };`, author, where)
}

// pairProgram asks for the papers two given authors wrote together. Both
// nodes carry constant labels, so the path index prunes to a few graphs.
func pairProgram(a, b string) string {
	return fmt.Sprintf(`graph P { node v1 <author label=%q>; node v2 <author label=%q>; edge e (v1, v2); };
for P exhaustive in doc("DBLP") return graph { node P.v1; node P.v2; edge e (P.v1, P.v2); };`, a, b)
}

// firstYear and years are gen.DBLP's publication-year range.
const (
	firstYear = 1995
	years     = 14
)

// coauthorRows counts, for every (author, venue, first year), the rows
// coauthorProgram returns: one per ordered pair (author, co-author) on a
// paper at the venue published in or after the year.
func coauthorRows(coll graph.Collection) map[string][][years]int {
	venueIdx := map[string]int{}
	for i, v := range venues {
		venueIdx[v] = i
	}
	out := map[string][][years]int{}
	for _, g := range coll {
		vi := venueIdx[g.Attrs.GetOr("booktitle").AsString()]
		y := int(g.Attrs.GetOr("year").AsInt()) - firstYear
		for u := 0; u < g.NumNodes(); u++ {
			a := g.Label(graph.NodeID(u))
			if out[a] == nil {
				out[a] = make([][years]int, len(venues))
			}
			// Every earlier first year includes this paper too.
			for from := 0; from <= y; from++ {
				out[a][vi][from] += g.NumNodes() - 1
			}
		}
	}
	return out
}

// collPrograms is the read population of the two read-only collection
// workloads. Position i has a target answer size on a fixed ladder from
// 400 rows down, and gets the co-author program — over the 32 most
// prolific authors, the venues and the first years — whose answer is
// nearest to it. Zipf draws concentrate on the first few positions, and
// an author's paper count varies by a tenth from seed to seed: tying
// positions to sizes, not to author ranks, is what keeps coll_cached's
// hit cost comparable across seeds. Every fourth position is instead a
// pair program over two authors of one paper of the corpus.
func collPrograms(coll graph.Collection, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(subSeed(seed, "coll-programs")))
	rows := coauthorRows(coll)
	type choice struct{ author, venue, from int }
	used := map[choice]bool{}
	out := make([]string, n)
	for i := range out {
		if i%4 == 3 {
			for {
				g := coll[rng.Intn(len(coll))]
				if g.NumNodes() >= 2 {
					out[i] = pairProgram(g.Label(0), g.Label(1))
					break
				}
			}
			continue
		}
		target := 400 * math.Pow(0.96, float64(i))
		best, bestErr := choice{}, math.Inf(1)
		for a := 0; a < 32; a++ {
			r := rows[authorName(a)]
			if r == nil {
				continue
			}
			for v := range venues {
				for from := 0; from < years; from++ {
					c := choice{a, v, from}
					if e := math.Abs(float64(r[v][from]) - target); e < bestErr && !used[c] {
						best, bestErr = c, e
					}
				}
			}
		}
		used[best] = true
		out[i] = coauthorProgram(authorName(best.author), venues[best.venue], firstYear+best.from)
	}
	return out
}

// mutPrograms is mutate_mix's read population: co-author programs over
// more (author, venue) pairs than the result cache has entries.
func mutPrograms(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = coauthorProgram(authorName(i/len(venues)), venues[i%len(venues)], 0)
	}
	return out
}

// cliqueProgram renders a clique pattern as a program returning every
// matched subgraph.
func cliqueProgram(p *pattern.Pattern) string {
	p.Name, p.Motif.Name = "P", "P"
	return p.String() + ";\nfor P exhaustive in doc(\"PPI\") return graph { graph P; };"
}

// cliqueOversample is how many candidate patterns are drawn per program
// kept; see cliquePrograms.
const cliqueOversample = 4

// cliquePrograms draws the §5.1 population: per size 2–7, perSize clique
// patterns whose labels all come from the graph's 40 most frequent. Labels
// drawn independently almost never have an answer beyond size 3 on the
// stand-in network, and the protocol discards queries without one, so the
// labels are those of a clique sampled from the graph (the conditional
// distribution the discarding induces).
//
// Query cost is heavy-tailed — a pattern that starts with two frequent
// labels costs a hundred times the median — so a plain sample of 100 per
// size has a mean that moves by a fifth from seed to seed. Instead four
// times as many are drawn, ordered by an estimate of Algorithm 4.1's work
// in declaration order (feasible mates of the first node, pairs tried for
// the second, adjacent pairs extended to the third), and every fourth is
// kept: the same distribution with a fraction of the sampling variance.
func cliquePrograms(g *graph.Graph, seed int64, perSize int) []string {
	rng := rand.New(rand.NewSource(subSeed(seed, "cliques")))
	top := map[string]bool{}
	for _, l := range gen.TopLabels(g, 40) {
		top[l] = true
	}
	freq := map[string]float64{}
	for v := 0; v < g.NumNodes(); v++ {
		freq[g.Label(graph.NodeID(v))]++
	}
	adjacent := map[[2]string]float64{}
	for _, e := range g.Edges() {
		a, b := g.Label(e.From), g.Label(e.To)
		adjacent[[2]string{a, b}]++
		adjacent[[2]string{b, a}]++
	}
	type candidate struct {
		p    *pattern.Pattern
		work float64
	}
	var out []string
	for size := 2; size <= 7; size++ {
		var cands []candidate
		for try := 0; len(cands) < cliqueOversample*perSize && try < 64*cliqueOversample*perSize; try++ {
			p := gen.GraphCliqueQuery(g, size, rng)
			if p == nil || p.Compile() != nil {
				continue
			}
			labels := make([]string, size)
			common := true
			for u := range labels {
				labels[u], _ = p.ConstLabel(graph.NodeID(u))
				common = common && top[labels[u]]
			}
			if !common {
				continue
			}
			work := freq[labels[0]] * (1 + freq[labels[1]])
			if size > 2 {
				work += adjacent[[2]string{labels[0], labels[1]}] * freq[labels[2]]
			}
			cands = append(cands, candidate{p, work})
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].work < cands[j].work })
		for i := cliqueOversample / 2; i < len(cands); i += cliqueOversample {
			out = append(out, cliqueProgram(cands[i].p))
		}
	}
	return out
}

// scratchGraph is the generator's model of one scratch graph: a path of
// nodes, grown at the tail and shrunk at the head, so a deleted node
// always takes exactly one edge with it.
type scratchGraph struct {
	name   string
	gen    int
	exists bool
	nodes  []string // node identifiers in path order
	next   int      // next node number
}

// scratchSlots is how many scratch graphs each client cycles through.
const scratchSlots = 4

// scratchVenue marks scratch graphs. No read program names it, so reads
// keep their oracle answers while writes land in the same document.
const scratchVenue = "SCRATCH"

// clientWrites pre-generates one client's mutation batches in the BQL
// insert/delete style. Each client owns its scratch graphs, so the
// sequence and every expected answer are fixed whatever the timing. One
// batch in 32 on an existing graph drops it: a drop shifts ordinals and
// repartitions the whole document, the store's documented slow path.
func clientWrites(seed int64, client, n int) []writeOp {
	rng := rand.New(rand.NewSource(subSeed(seed, fmt.Sprintf("writes-%d", client))))
	var slots [scratchSlots]scratchGraph
	out := make([]writeOp, 0, n)
	const inDoc = ` in doc("DBLP");`
	nodeName := func(g *scratchGraph, k int) string { return fmt.Sprintf("%s_n%d", g.name, k) }
	nodeTuple := func(name string) string { return fmt.Sprintf(`<author name=%q label="scratch">`, name) }
	for len(out) < n {
		si := rng.Intn(scratchSlots)
		g := &slots[si]
		u := rng.Float64()
		var w writeOp
		switch {
		case !g.exists:
			g.gen++
			g.name = fmt.Sprintf("scratch_c%d_s%d_g%d", client, si, g.gen)
			g.exists, g.nodes, g.next = true, []string{"n0", "n1"}, 2
			a, b := nodeName(g, 0), nodeName(g, 1)
			w.src = fmt.Sprintf(`create graph %s <inproceedings booktitle=%q year=2000> { node n0 %s; node n1 %s; edge e1 (n0, n1); }%s`,
				g.name, scratchVenue, nodeTuple(a), nodeTuple(b), inDoc)
			w.want = mutationCounts{Mutations: 1, GraphsCreated: 1, NodesAdded: 2, EdgesAdded: 1}
			w.adds = []string{a, b}
		case u < 1.0/32:
			w.src = fmt.Sprintf(`drop graph %s%s`, g.name, inDoc)
			w.want = mutationCounts{Mutations: 1, GraphsDropped: 1}
			for _, id := range g.nodes {
				w.removes = append(w.removes, g.name+"_"+id)
			}
			g.exists = false
		case u < 0.42 && len(g.nodes) >= 3:
			head := g.nodes[0]
			g.nodes = g.nodes[1:]
			w.src = fmt.Sprintf(`delete node %s from %s%s`, head, g.name, inDoc)
			w.want = mutationCounts{Mutations: 1, NodesDeleted: 1, EdgesDeleted: 1}
			w.removes = []string{g.name + "_" + head}
		default:
			id := fmt.Sprintf("n%d", g.next)
			prev := g.nodes[len(g.nodes)-1]
			name := nodeName(g, g.next)
			w.src = fmt.Sprintf("insert node %s %s into %s%s\ninsert edge e%d (%s, %s) into %s%s",
				id, nodeTuple(name), g.name, inDoc, g.next, prev, id, g.name, inDoc)
			w.want = mutationCounts{Mutations: 2, NodesAdded: 1, EdgesAdded: 1}
			w.adds = []string{name}
			g.nodes = append(g.nodes, id)
			g.next++
		}
		w.body = encodeQuery(w.src, -1)
		out = append(out, w)
	}
	return out
}

// scratchProbe returns one row per node of every scratch graph: what the
// crash check reads back after the restart.
const scratchProbe = `graph P { node v <author label="scratch">; } where P.booktitle = "SCRATCH";
for P exhaustive in doc("DBLP") return graph { node P.v; };`

// schedules fixes each client's op sequence before any window opens.
//
//   - ppi_clique: seeded shuffles of the whole population, back to back,
//     so every program runs equally often and order effects average out;
//   - coll_cached: Zipf(1.0) draws, so a working set that fits the result
//     cache takes most requests;
//   - coll_cluster: uniform draws (no cache to favour);
//   - mutate_mix: a write with probability 0.2, else a uniform read.
func schedules(workload string, seed int64, nReads int, sz sizes) [clients][]int32 {
	var out [clients][]int32
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(subSeed(seed, fmt.Sprintf("sched-%s-%d", workload, c))))
		s := make([]int32, 0, sz.schedLen)
		switch workload {
		case wlPPIClique:
			for len(s) < sz.schedLen {
				for _, i := range rng.Perm(nReads) {
					s = append(s, int32(i))
				}
			}
			s = s[:sz.schedLen]
		case wlCollCached:
			z := gen.NewZipf(nReads, rng)
			for len(s) < sz.schedLen {
				s = append(s, int32(z.Next()))
			}
		case wlCollCluster:
			for len(s) < sz.schedLen {
				s = append(s, int32(rng.Intn(nReads)))
			}
		case wlMutateMix:
			writes := 0
			for len(s) < sz.schedLen {
				if rng.Float64() < 0.2 && writes < sz.writesPerClient {
					s = append(s, schedWrite)
					writes++
				} else {
					s = append(s, int32(rng.Intn(nReads)))
				}
			}
		}
		out[c] = s
	}
	return out
}

// buildInputs generates a workload's corpus file, programs, writes and
// schedules from the seed, and has the oracle answer every read.
func buildInputs(workload string, seed int64, sz sizes, dir string) (*inputs, error) {
	path, coll, err := writeCorpus(workload, seed, sz, dir)
	if err != nil {
		return nil, err
	}
	in := &inputs{workload: workload, corpusPath: path, doc: docFor(workload), take: -1}
	orc, err := newOracle(path, in.doc)
	if err != nil {
		return nil, err
	}
	var progs []string
	switch workload {
	case wlPPIClique:
		in.take = cliqueTake
		progs = cliquePrograms(coll[0], seed, sz.cliquesPerSize)
	case wlCollCached, wlCollCluster:
		progs = collPrograms(coll, seed, sz.collPrograms)
	case wlMutateMix:
		progs = mutPrograms(sz.mutPrograms)
		for c := 0; c < clients; c++ {
			in.writes[c] = clientWrites(seed, c, sz.writesPerClient)
		}
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if in.reads, err = orc.answer(progs, in.take); err != nil {
		return nil, err
	}
	for i := range in.reads {
		// A sampled clique matches itself; an author who never published
		// at a venue is a valid empty answer.
		if workload == wlPPIClique && in.reads[i].wantRows == 0 {
			return nil, fmt.Errorf("bench: clique program without an answer:\n%s", in.reads[i].src)
		}
	}
	in.sched = schedules(workload, seed, len(in.reads), sz)
	return in, nil
}

// docFor is the document name the workload's corpus is registered under.
func docFor(workload string) string {
	if workload == wlPPIClique {
		return "PPI"
	}
	return "DBLP"
}
