package graph

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func richGraph() *Graph {
	g := NewDirected("rich")
	g.Attrs = TupleOf("meta", "version", 2, "ratio", 0.5, "ok", true)
	a := g.AddNode("a", TupleOf("author", "name", "A", "h", 3.25))
	b := g.AddNode("b", nil)
	c := g.AddNode("c", TupleOf("", "flag", false))
	g.AddEdge("e1", a, b, TupleOf("rel", "kind", "cites"))
	g.AddEdge("e2", b, c, nil)
	g.AddEdge("e3", c, a, TupleOf("", "w", int64(-9)))
	return g
}

func TestBinaryRoundtrip(t *testing.T) {
	in := NewCollection(richGraph(), New("empty"))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("graphs = %d", len(out))
	}
	for i := range in {
		if in[i].Signature() != out[i].Signature() {
			t.Errorf("graph %d changed:\n%s\nvs\n%s", i, in[i].Signature(), out[i].Signature())
		}
		if in[i].Directed != out[i].Directed || in[i].Name != out[i].Name {
			t.Errorf("graph %d header changed", i)
		}
	}
	// Value kinds precise: float and negative int survive.
	g := out[0]
	if g.Attrs.GetOr("ratio").AsFloat() != 0.5 {
		t.Error("float attr lost precision")
	}
	e3, _ := g.EdgeByName("e3")
	if g.Edge(e3).Attrs.GetOr("w").AsInt() != -9 {
		t.Error("negative int attr lost")
	}
}

func TestBinaryRoundtripSpecialFloats(t *testing.T) {
	g := New("f")
	g.AddNode("v", TupleOf("", "inf", math.Inf(1), "tiny", math.SmallestNonzeroFloat64))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, NewCollection(g)); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	attrs := out[0].Node(0).Attrs
	if !math.IsInf(attrs.GetOr("inf").AsFloat(), 1) {
		t.Error("+Inf lost")
	}
	if attrs.GetOr("tiny").AsFloat() != math.SmallestNonzeroFloat64 {
		t.Error("denormal lost")
	}
}

func TestBinaryErrors(t *testing.T) {
	bad := [][]byte{
		nil,                    // empty
		[]byte("XXXX\x01\x00"), // bad magic
		[]byte("GQLB\x09\x00"), // bad version
		[]byte("GQLB\x01\x05"), // truncated after count
	}
	for i, b := range bad {
		if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	// Truncation anywhere must error, not panic.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, NewCollection(richGraph())); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated at %d: want error", cut)
		}
	}
}

// Property: random attributed graphs survive the binary roundtrip.
func TestBinaryRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var coll Collection
		for gi := 0; gi < 1+rng.Intn(3); gi++ {
			g := New(strings.Repeat("g", 1+rng.Intn(3)))
			g.Directed = rng.Intn(2) == 0
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				var attrs *Tuple
				switch rng.Intn(4) {
				case 0:
					attrs = nil
				case 1:
					attrs = TupleOf("", "x", rng.Intn(100))
				case 2:
					attrs = TupleOf("tag", "s", strings.Repeat("a", rng.Intn(5)))
				default:
					attrs = TupleOf("", "f", rng.Float64(), "b", rng.Intn(2) == 0)
				}
				g.AddNode("", attrs)
			}
			for i := rng.Intn(2 * n); i > 0; i-- {
				g.AddEdge("", NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), nil)
			}
			coll = append(coll, g)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, coll); err != nil {
			return false
		}
		out, err := ReadBinary(&buf)
		if err != nil || len(out) != len(coll) {
			return false
		}
		for i := range coll {
			if coll[i].Signature() != out[i].Signature() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomValue draws a value of every kind, the null and both signs
// included.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null
	case 1:
		return Int(rng.Int63() - rng.Int63())
	case 2:
		return Float(rng.NormFloat64() * 1e6)
	case 3:
		return String(strings.Repeat("é", rng.Intn(4)))
	}
	return Bool(rng.Intn(2) == 0)
}

// randomTuple draws nil or a tuple of up to four random attributes.
func randomTuple(rng *rand.Rand) *Tuple {
	if rng.Intn(3) == 0 {
		return nil
	}
	t := NewTuple(strings.Repeat("t", rng.Intn(2)))
	for i := rng.Intn(5); i > 0; i-- {
		t.Set(string(rune('a'+rng.Intn(6))), randomValue(rng))
	}
	return t
}

// TestBinaryBufferedMatchesInMemory: the codec writes and reads an
// in-memory buffer directly and anything else through its own buffer; the
// two paths give byte-identical output and equal graphs. The unbuffered
// side hides the byte methods of its writer and reads one byte per call.
func TestBinaryBufferedMatchesInMemory(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var coll Collection
		for gi := rng.Intn(4); gi > 0; gi-- {
			g := New(strings.Repeat("g", 1+rng.Intn(3)))
			g.Directed = rng.Intn(2) == 0
			g.Attrs = randomTuple(rng)
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				g.AddNode("", randomTuple(rng))
			}
			for i := rng.Intn(2 * n); i > 0; i-- {
				g.AddEdge("", NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), randomTuple(rng))
			}
			coll = append(coll, g)
		}
		var direct, buffered bytes.Buffer
		if err := WriteBinary(&direct, coll); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(struct{ io.Writer }{&buffered}, coll); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), buffered.Bytes()) {
			t.Fatalf("seed %d: in-memory and buffered encodings differ", seed)
		}
		fromMem, err := ReadBinary(bytes.NewReader(direct.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fromBuf, err := ReadBinary(iotest.OneByteReader(bytes.NewReader(direct.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		if len(fromMem) != len(coll) || len(fromBuf) != len(coll) {
			t.Fatalf("seed %d: %d and %d graphs decoded, want %d", seed, len(fromMem), len(fromBuf), len(coll))
		}
		for i, g := range coll {
			for _, got := range []*Graph{fromMem[i], fromBuf[i]} {
				if got.Signature() != g.Signature() || got.Attrs.String() != g.Attrs.String() || got.Directed != g.Directed {
					t.Fatalf("seed %d graph %d: decoded graph differs", seed, i)
				}
			}
		}
	}
}

// TestBinaryInMemoryAllocs: encoding a 3-node motif into a bytes.Buffer and
// decoding it from a bytes.Reader allocates no 64 KiB bufio buffer on
// either side.
func TestBinaryInMemoryAllocs(t *testing.T) {
	g := New("P")
	a := g.AddNode("a", TupleOf("", "label", "author"))
	b := g.AddNode("b", TupleOf("", "label", "paper", "year", 2006))
	c := g.AddNode("c", nil)
	g.AddEdge("e1", a, b, nil)
	g.AddEdge("e2", c, b, nil)
	coll := Collection{g}
	var buf bytes.Buffer
	run := func() {
		buf.Reset()
		if err := WriteBinary(&buf, coll); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun >= 64<<10 {
		t.Errorf("a 3-node encode and decode allocates %d bytes, want under 64 KiB", perRun)
	}
	if allocs > 80 {
		t.Errorf("a 3-node encode and decode makes %.0f allocations, want at most 80", allocs)
	}
}
