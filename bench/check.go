package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// extraBounds are the rules for the end-to-end observations that
// BENCHMARK.json cannot carry (they are zero or undefined on some
// workload): ISSUE 11's bounds for the write latencies, and "must stay 0"
// for the two failure counts.
var extraBounds = []bound{
	{Name: "write_p50_ms", Better: "lower", Bound: 0.10},
	{Name: "write_p99_ms", Better: "lower", Bound: 0.25},
	{Name: "failed_ratio", Better: "lower", Bound: 0},
	{Name: "acked_writes_lost", Better: "lower", Bound: 0},
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json.
func loadBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range append(f.EndToEnd, extraBounds...) {
		out[m.Name] = m
	}
	return out, nil
}

// verdict classifies one (metric, workload) row of a self-agreement
// check. Two sets of runs of the same code "agree" when their relative
// spread is inside the metric's bound; a spread beyond it means the
// benchmark cannot resolve a regression of that size on this row, which
// is a different statement from "equal" and is reported as such.
func verdict(a, b float64, bd bound) (spread float64, v string) {
	if a == 0 && b == 0 {
		return 0, "equal"
	}
	lo, hi := math.Min(a, b), math.Max(a, b)
	if lo <= 0 {
		return math.Inf(1), "unresolved"
	}
	spread = (hi - lo) / lo
	if spread <= bd.Bound {
		return spread, "agree"
	}
	return spread, "unresolved"
}

// agree compares the first two sets row by row, prints both values and
// the relative spread of every (metric, workload) pair, and reports
// whether every row agreed.
func agree(sets [][]*result, bounds map[string]bound) bool {
	fmt.Println("self-agreement: set 1 vs set 2, same build")
	fmt.Printf("  %-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "spread", "bound", "verdict")
	ok := true
	for wi, r1 := range sets[0] {
		r2 := sets[1][wi]
		m2 := map[string]float64{}
		for _, m := range append(append([]metric(nil), r2.e2e...), r2.extra...) {
			m2[m.Name] = m.Value
		}
		for _, m := range append(append([]metric(nil), r1.e2e...), r1.extra...) {
			bd, known := bounds[m.Name]
			if !known || strings.HasPrefix(m.Note, "n/a") {
				continue
			}
			spread, v := verdict(m.Value, m2[m.Name], bd)
			if v == "unresolved" {
				ok = false
			}
			fmt.Printf("  %-14s %-20s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n",
				r1.workload, m.Name, m.Value, m2[m.Name], spread*100, bd.Bound*100, v)
		}
	}
	return ok
}
