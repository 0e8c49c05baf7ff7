package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleBasics(t *testing.T) {
	tp := NewTuple("author")
	tp.Set("name", String("A"))
	tp.Set("year", Int(2006))
	if tp.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tp.Len())
	}
	if v, ok := tp.Get("name"); !ok || v.AsString() != "A" {
		t.Errorf("Get(name) = %v,%v", v, ok)
	}
	if _, ok := tp.Get("missing"); ok {
		t.Error("Get(missing) should be absent")
	}
	tp.Set("name", String("B")) // replace keeps position
	if tp.At(0).Name != "name" || tp.At(0).Val.AsString() != "B" {
		t.Errorf("replace changed order: %v", tp.At(0))
	}
	want := `<author name="B", year=2006>`
	if tp.String() != want {
		t.Errorf("String() = %s, want %s", tp, want)
	}
}

func TestTupleNilSafety(t *testing.T) {
	var tp *Tuple
	if tp.Len() != 0 {
		t.Error("nil tuple Len should be 0")
	}
	if _, ok := tp.Get("x"); ok {
		t.Error("nil tuple Get should be absent")
	}
	if tp.Clone() != nil {
		t.Error("nil tuple Clone should be nil")
	}
	if tp.String() != "" {
		t.Error("nil tuple String should be empty")
	}
	if !tp.Equal(NewTuple("")) {
		t.Error("nil tuple should equal empty tuple")
	}
}

func TestTupleEqual(t *testing.T) {
	a := TupleOf("t", "x", 1, "y", "s")
	b := TupleOf("t", "y", "s", "x", 1) // order-insensitive
	c := TupleOf("u", "x", 1, "y", "s") // different tag
	d := TupleOf("t", "x", 2, "y", "s") // different value
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("a should differ from c and d")
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	a := TupleOf("", "x", 1)
	b := a.Clone()
	b.Set("x", Int(2))
	if a.GetOr("x").AsInt() != 1 {
		t.Error("Clone must not share storage")
	}
}

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New("G1")
	v1 := g.AddNode("v1", TupleOf("", "label", "A"))
	v2 := g.AddNode("v2", TupleOf("", "label", "B"))
	v3 := g.AddNode("v3", TupleOf("", "label", "C"))
	g.AddEdge("e1", v1, v2, nil)
	g.AddEdge("e2", v2, v3, nil)
	g.AddEdge("e3", v3, v1, nil)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := buildTriangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size = %d/%d, want 3/3", g.NumNodes(), g.NumEdges())
	}
	v1, ok := g.NodeByName("v1")
	if !ok {
		t.Fatal("v1 not found")
	}
	if g.Label(v1) != "A" {
		t.Errorf("Label(v1) = %q", g.Label(v1))
	}
	if g.Degree(v1) != 2 {
		t.Errorf("Degree(v1) = %d, want 2", g.Degree(v1))
	}
	v2, _ := g.NodeByName("v2")
	v3, _ := g.NodeByName("v3")
	if !g.HasEdgeBetween(v1, v2) || !g.HasEdgeBetween(v2, v1) {
		t.Error("undirected edge should be visible both ways")
	}
	if !g.HasEdgeBetween(v3, v1) {
		t.Error("edge v3-v1 missing")
	}
	if g.HasEdgeBetween(v1, v1) {
		t.Error("no self loop expected")
	}
}

func TestDirectedGraph(t *testing.T) {
	g := NewDirected("D")
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge("", a, b, nil)
	if !g.HasEdgeBetween(a, b) {
		t.Error("a->b missing")
	}
	if g.HasEdgeBetween(b, a) {
		t.Error("b->a should not exist in directed graph")
	}
	if g.Degree(a) != 1 || g.Degree(b) != 0 {
		t.Errorf("out-degrees = %d,%d", g.Degree(a), g.Degree(b))
	}
	if len(g.InAdj(b)) != 1 {
		t.Errorf("in-degree(b) = %d, want 1", len(g.InAdj(b)))
	}
}

func TestMultigraphAndSelfLoops(t *testing.T) {
	g := New("M")
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge("", a, b, nil)
	g.AddEdge("", a, b, nil)
	g.AddEdge("", a, a, nil)
	if len(g.EdgesBetween(a, b)) != 2 {
		t.Errorf("parallel edges = %d, want 2", len(g.EdgesBetween(a, b)))
	}
	if len(g.EdgesBetween(a, a)) != 1 {
		t.Errorf("self loops = %d, want 1", len(g.EdgesBetween(a, a)))
	}
	if g.Degree(a) != 3 { // b twice + self loop once
		t.Errorf("Degree(a) = %d, want 3", g.Degree(a))
	}
}

func TestDuplicateNamesRecordError(t *testing.T) {
	g := New("G")
	g.AddNode("v", nil)
	id := g.AddNode("v", nil)
	if g.Err() == nil {
		t.Fatal("duplicate node name should record a construction error")
	}
	// Construction stays usable: the second node exists under a unique name
	// with a dense ID, so bulk loaders can keep going and report at the end.
	if id != 1 || g.NumNodes() != 2 {
		t.Fatalf("after duplicate: id=%d nodes=%d, want 1 and 2", id, g.NumNodes())
	}
	if g.Node(0).Name == g.Node(1).Name {
		t.Error("duplicate node kept a colliding name")
	}
	if g.Clone().Err() == nil {
		t.Error("Clone must carry the construction error")
	}
}

func TestAddEdgeOutOfRangeRecordsError(t *testing.T) {
	g := New("G")
	a := g.AddNode("a", nil)
	if id := g.AddEdge("", a, 7, nil); id != NoEdge {
		t.Fatalf("out-of-range AddEdge = %d, want NoEdge", id)
	}
	if g.Err() == nil {
		t.Fatal("out-of-range AddEdge should record a construction error")
	}
	if g.NumEdges() != 0 {
		t.Errorf("bad edge was added: %d edges", g.NumEdges())
	}
}

func TestRenameNodeErrors(t *testing.T) {
	g := New("G")
	a := g.AddNode("a", nil)
	g.AddNode("b", nil)
	g.RenameNode(a, "b")
	if g.Err() == nil {
		t.Fatal("duplicate rename should record a construction error")
	}
	if g.Node(a).Name != "a" {
		t.Error("failed rename must leave the name unchanged")
	}
	g2 := New("G2")
	g2.RenameNode(5, "x")
	if g2.Err() == nil {
		t.Error("out-of-range rename should record a construction error")
	}
}

func TestTupleOfErrors(t *testing.T) {
	if err := TupleOf("", "k", struct{}{}).Err(); err == nil {
		t.Error("unsupported value type should record an error")
	}
	if err := TupleOf("", "dangling").Err(); err == nil {
		t.Error("dangling name should record an error")
	}
	if err := TupleOf("", 3, "v").Err(); err == nil {
		t.Error("non-string name should record an error")
	}
	if err := TupleOf("", "k", 1, "s", "x", "b", true, "f", 1.5).Err(); err != nil {
		t.Errorf("well-formed TupleOf recorded error: %v", err)
	}
	// Graphs absorb tuple errors when the tuple is attached.
	g := New("G")
	g.AddNode("v", TupleOf("", "k", struct{}{}))
	if g.Err() == nil {
		t.Error("attaching a malformed tuple should record a graph error")
	}
}

func TestBuilderAccumulatesErrors(t *testing.T) {
	b := NewBuilder("G", false)
	a := b.AddNode("a", nil)
	b.AddNode("a", nil)                   // duplicate node name
	b.AddEdge("", a, 9, nil)              // out-of-range endpoint
	b.AddNode("c", TupleOf("", "k", 'x')) // rune: unsupported value type
	b.RenameNode(42, "zz")                // out-of-range rename
	g, err := b.Build()
	if g != nil || err == nil {
		t.Fatalf("Build = %v, %v; want nil graph and joined errors", g, err)
	}
	msg := err.Error()
	for _, want := range []string{"duplicate node name", "out of range", "unsupported value type", "RenameNode"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error %q missing %q", msg, want)
		}
	}
}

func TestBuilderBuildsCleanGraph(t *testing.T) {
	b := NewBuilder("G", true)
	b.SetTuple(TupleOf("meta", "source", "test"))
	u := b.AddNode("u", TupleOf("", "label", "A"))
	v := b.AddNode("v", TupleOf("", "label", "B"))
	b.AddEdge("e", u, v, nil)
	b.RenameNode(v, "w")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed || g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("unexpected graph: %v", g)
	}
	if _, ok := g.NodeByName("w"); !ok {
		t.Error("rename lost")
	}
	if g.Attrs.GetOr("source").AsString() != "test" {
		t.Error("SetTuple lost")
	}
}

func TestAutoNames(t *testing.T) {
	g := New("G")
	a := g.AddNode("", nil)
	b := g.AddNode("", nil)
	g.AddEdge("", a, b, nil)
	if g.Node(a).Name == g.Node(b).Name {
		t.Error("auto names must be unique")
	}
	if _, ok := g.NodeByName(g.Node(a).Name); !ok {
		t.Error("auto name not registered")
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	if c.Signature() != g.Signature() {
		t.Fatal("clone signature differs")
	}
	v4 := c.AddNode("v4", TupleOf("", "label", "D"))
	c.AddEdge("", v4, 0, nil)
	c.Node(0).Attrs.Set("label", String("Z"))
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Error("mutating clone changed original structure")
	}
	if g.Label(0) != "A" {
		t.Error("mutating clone changed original attributes")
	}
}

func TestGraphString(t *testing.T) {
	g := buildTriangle(t)
	s := g.String()
	for _, want := range []string{"graph G1 {", `node v1 <label="A">;`, "edge e1 (v1, v2);"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestSignatureOrderInsensitive(t *testing.T) {
	g1 := New("G")
	a := g1.AddNode("a", nil)
	b := g1.AddNode("b", nil)
	g1.AddEdge("e", a, b, nil)

	g2 := New("G")
	b2 := g2.AddNode("b", nil)
	a2 := g2.AddNode("a", nil)
	g2.AddEdge("e", b2, a2, nil) // undirected: reversed endpoints

	if g1.Signature() != g2.Signature() {
		t.Errorf("signatures differ:\n%s\n---\n%s", g1.Signature(), g2.Signature())
	}
}

func TestTSVRoundtrip(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 3 || got.NumEdges() != 3 || got.Name != "G1" {
		t.Fatalf("roundtrip lost data: %d/%d %q", got.NumNodes(), got.NumEdges(), got.Name)
	}
	for i := 0; i < 3; i++ {
		if got.Label(NodeID(i)) != g.Label(NodeID(i)) {
			t.Errorf("label %d = %q, want %q", i, got.Label(NodeID(i)), g.Label(NodeID(i)))
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	bad := []string{
		"",                          // empty
		"v\t0\tA",                   // node before header
		"g\tG\t0\nv\t5\tA",          // non-dense id
		"g\tG\t0\nv\t0\tA\ne\t0\t9", // endpoint out of range
		"x\t0",                      // unknown record
		"g\tG",                      // short header
	}
	for _, s := range bad {
		if _, err := ReadTSV(strings.NewReader(s)); err == nil {
			t.Errorf("ReadTSV(%q): want error", s)
		}
	}
}

// Property: a random graph survives a TSV roundtrip with identical structure.
func TestTSVRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		g := New("R")
		for i := 0; i < n; i++ {
			g.AddNode("", TupleOf("", "label", string(rune('A'+rng.Intn(5)))))
		}
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			g.AddEdge("", NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), nil)
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, g); err != nil {
			return false
		}
		got, err := ReadTSV(&buf)
		if err != nil {
			return false
		}
		return got.Signature() == g.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCollection(t *testing.T) {
	g1, g2 := buildTriangle(t), buildTriangle(t)
	g2.Name = "G2"
	c := NewCollection(g1, g2)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	cl := c.Clone()
	cl[0].AddNode("extra", nil)
	if g1.NumNodes() != 3 {
		t.Error("Clone must deep-copy members")
	}
}
