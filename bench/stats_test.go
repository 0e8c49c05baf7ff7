package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one", []float64{7}, 7},
		{"odd", []float64{1, 2, 9}, 2},
		{"even takes the lower middle", []float64{1, 2, 3, 4}, 2},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("%s: median = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := medianOf([]float64{9, 1, 5}); got != 5 {
		t.Errorf("medianOf sorts a copy: got %v, want 5", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		q        float64
		want     float64
		wantQ    float64
		fellBack bool
	}{
		// 2000 samples: p99 is the 1980th, 20 lie beyond it.
		{"p99 supported", 2000, 0.99, 1980, 0.99, false},
		// 1100 samples: p99 is the 1089th, 11 beyond: just supported.
		{"p99 just supported", 1100, 0.99, 1089, 0.99, false},
		// 1000 samples: p99 is the 990th with exactly 10 beyond.
		{"p99 with exactly ten beyond", 1000, 0.99, 990, 0.99, false},
		// 400 samples: p99 would leave 4 beyond; the 390th leaves 10.
		{"falls back to ten beyond", 400, 0.99, 390, 0.975, true},
		// 11 samples: the only value with ten beyond is the smallest.
		{"smallest sample with a tail", 11, 0.99, 1, 1.0 / 11, true},
		// 10 samples support no tail at all.
		{"no tail: median", 10, 0.99, 5, 0.5, true},
		{"one sample", 1, 0.99, 1, 0.5, true},
	} {
		got := tailQuantile(seq(tc.n), tc.q)
		if got.Value != tc.want || math.Abs(got.Q-tc.wantQ) > 1e-9 || got.FellBack != tc.fellBack || got.N != tc.n {
			t.Errorf("%s: got %+v, want value %v q %v fellBack %v n %d", tc.name, got, tc.want, tc.wantQ, tc.fellBack, tc.n)
		}
	}
	if got := tailQuantile(nil, 0.99); got != (quantile{}) {
		t.Errorf("empty sample: got %+v, want the zero quantile", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := []byte(`# HELP gqldb_queries_total programs executed by the query engine
# TYPE gqldb_queries_total counter
gqldb_queries_total 42
gqldb_pool_worker_busy_seconds_total{worker="1"} 0.25
gqldb_query_seconds_bucket{le="+Inf"} 7
gqldb_query_seconds_sum 1.5e-03

not a metric line
gqldb_broken notanumber
`)
	got := parseMetrics(text)
	want := map[string]float64{
		"gqldb_queries_total":                              42,
		`gqldb_pool_worker_busy_seconds_total{worker="1"}`: 0.25,
		`gqldb_query_seconds_bucket{le="+Inf"}`:            7,
		"gqldb_query_seconds_sum":                          0.0015,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d series %v, want %d", len(got), got, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	d := metricsDelta(map[string]float64{"a": 1}, map[string]float64{"a": 4, "b": 2})
	if d["a"] != 3 || d["b"] != 2 {
		t.Errorf("metricsDelta = %v, want a=3 b=2", d)
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Errorf("ratio: division by zero must give 0, 1/4 must give 0.25")
	}
}

func TestVerdict(t *testing.T) {
	ten := bound{Name: "x", Better: "lower", Bound: 0.10}
	zero := bound{Name: "failed_ratio", Better: "lower", Bound: 0}
	for _, tc := range []struct {
		name string
		a, b float64
		bd   bound
		want string
	}{
		{"inside the bound", 100, 108, ten, "agree"},
		{"beyond the bound is unresolved, never equal", 100, 115, ten, "unresolved"},
		{"order does not matter", 115, 100, ten, "unresolved"},
		{"both zero", 0, 0, zero, "equal"},
		{"a must-be-zero metric that rose", 0, 0.01, zero, "unresolved"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.bd); got != tc.want {
			t.Errorf("%s: verdict(%v, %v) = %s, want %s", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}
