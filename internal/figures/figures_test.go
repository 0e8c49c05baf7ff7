package figures

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"gqldb/internal/stats"
)

// quickRunner shares one scaled-down runner across tests (datasets and
// measurements are cached inside).
var quickRunner = NewRunner(Quick())

// parseLog parses a "1e-3.4" cell back into -3.4.
func parseLog(t *testing.T, cell string) float64 {
	t.Helper()
	if cell == "n/a" {
		return math.NaN()
	}
	if !strings.HasPrefix(cell, "1e") {
		t.Fatalf("bad log cell %q", cell)
	}
	v, err := strconv.ParseFloat(cell[2:], 64)
	if err != nil {
		t.Fatalf("bad log cell %q: %v", cell, err)
	}
	return v
}

func parseMs(t *testing.T, cell string) float64 {
	t.Helper()
	if cell == "n/a" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad ms cell %q: %v", cell, err)
	}
	return v
}

func TestFig420Shapes(t *testing.T) {
	for _, bucket := range []stats.Bucket{stats.BucketLow, stats.BucketHigh} {
		tb, err := quickRunner.Fig420(bucket)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("Fig 4.20 empty for bucket %v", bucket)
		}
		for _, row := range tb.Rows {
			prof := parseLog(t, row[2])
			sub := parseLog(t, row[3])
			ref := parseLog(t, row[4])
			// All pruning must reduce or keep the space: ratio <= 1.
			if prof > 1e-9 || sub > 1e-9 || ref > 1e-9 {
				t.Errorf("size %s: ratios must be <= 1: prof=%v sub=%v ref=%v", row[0], prof, sub, ref)
			}
			// Paper shape (clique queries): refinement always reduces the
			// profile-retrieved space, and subgraph retrieval gives the
			// smallest space (the neighborhood of a clique node is the
			// whole clique).
			if !(ref <= prof+1e-9) {
				t.Errorf("size %s: refined (%v) should be <= profiles (%v)", row[0], ref, prof)
			}
			if !(sub <= prof+1e-9) {
				t.Errorf("size %s: subgraphs (%v) should be <= profiles (%v) on cliques", row[0], sub, prof)
			}
		}
	}
}

func TestFig421Shapes(t *testing.T) {
	ta, err := quickRunner.Fig421a()
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Rows) == 0 {
		t.Fatal("Fig 4.21(a) empty")
	}
	// Shape: retrieval by subgraphs costs more than retrieval by profiles.
	// Summed over sizes, with a generous margin: at quick scale the two
	// are fractions of a millisecond apart and scheduler noise (e.g. a
	// concurrent benchmark on a single-core machine) can invert them
	// slightly; only a substantial inversion is a real shape violation.
	var prof, sub float64
	for _, row := range ta.Rows {
		prof += parseMs(t, row[1])
		sub += parseMs(t, row[2])
	}
	if sub < 0.6*prof {
		t.Errorf("subgraph retrieval (%v ms) should not be substantially cheaper than profile retrieval (%v ms)", sub, prof)
	}

	tb, err := quickRunner.Fig421b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("Fig 4.21(b) empty")
	}
	// Shape: summed over clique sizes >= 4 (where the join count starts to
	// bite and times are above timer noise), SQL is slower than Optimized.
	var sumOpt, sumSQL float64
	for _, row := range tb.Rows {
		size, _ := strconv.Atoi(row[0])
		opt := parseMs(t, row[1])
		sql := parseMs(t, row[3])
		if size >= 4 && !math.IsNaN(sql) {
			sumOpt += opt
			sumSQL += sql
		}
	}
	if sumSQL > 0 && sumSQL < sumOpt {
		t.Errorf("SQL (%v ms) unexpectedly faster than optimized (%v ms) over clique sizes >= 4", sumSQL, sumOpt)
	}
}

func TestFig422And423a(t *testing.T) {
	ta, err := quickRunner.Fig422a()
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Rows) == 0 {
		t.Fatal("Fig 4.22(a) empty")
	}
	for _, row := range ta.Rows {
		prof := parseLog(t, row[2])
		ref := parseLog(t, row[4])
		// Paper shape on sparse synthetic queries: the refined space is
		// the smallest (unlike cliques, it beats subgraph retrieval).
		if !(ref <= prof+1e-9) {
			t.Errorf("size %s: refined (%v) should be <= profiles (%v)", row[0], ref, prof)
		}
	}
	if _, err := quickRunner.Fig422b(); err != nil {
		t.Fatal(err)
	}
	tc, err := quickRunner.Fig423a()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: SQL is competitive on small queries ("it scales
	// to large graphs with small queries") but not on large ones; compare
	// summed times over query sizes >= 8.
	var sumOpt, sumSQL float64
	for _, row := range tc.Rows {
		size, _ := strconv.Atoi(row[0])
		opt := parseMs(t, row[1])
		sql := parseMs(t, row[3])
		if size >= 8 && !math.IsNaN(sql) {
			sumOpt += opt
			sumSQL += sql
		}
	}
	if sumSQL > 0 && sumSQL < sumOpt {
		t.Errorf("SQL (%v ms) unexpectedly faster than optimized (%v ms) over query sizes >= 8", sumSQL, sumOpt)
	}
}

func TestFig423bSweep(t *testing.T) {
	tb, err := quickRunner.Fig423b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(quickRunner.Cfg.SweepSizes) {
		t.Fatalf("sweep rows = %d, want %d", len(tb.Rows), len(quickRunner.Cfg.SweepSizes))
	}
}

func TestAblations(t *testing.T) {
	ta, err := quickRunner.AblationOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Rows) == 0 {
		t.Fatal("order ablation empty")
	}
	tb, err := quickRunner.AblationRefineLevel()
	if err != nil {
		t.Fatal(err)
	}
	// Deeper refinement never grows the space.
	prev := math.Inf(1)
	for _, row := range tb.Rows {
		v := parseLog(t, row[1])
		if v > prev+1e-9 {
			t.Errorf("refinement level %s grew the space: %v > %v", row[0], v, prev)
		}
		prev = v
	}
}

func TestAblationRadius(t *testing.T) {
	// The directional effect of a larger radius depends on the pattern's
	// diameter (for diameter-1 cliques the data-side ball grows but the
	// pattern ball cannot, weakening the test), so the ablation only
	// reports the numbers. What must hold is soundness: the table builds
	// without error and every cell parses.
	tb, err := quickRunner.AblationRadius()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("radius ablation empty")
	}
	for _, row := range tb.Rows {
		parseLog(t, row[1])
		parseLog(t, row[2])
		parseMs(t, row[3])
		parseMs(t, row[4])
	}
}

func TestAblationAdjacency(t *testing.T) {
	tb, err := quickRunner.AblationAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("adjacency ablation empty")
	}
	for _, row := range tb.Rows {
		parseMs(t, row[1])
		parseMs(t, row[2])
	}
}
