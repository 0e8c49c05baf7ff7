package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to count as measured rather than as the luck of a few outliers.
const minBeyond = 10

// quantile is one percentile of a latency sample together with what it
// took to compute it, so a report can say "p99 of 1830" or "p98.2 (fell
// back) of 612" instead of a bare number.
type quantile struct {
	Value float64
	// Q is the quantile actually reported, in (0, 1].
	Q float64
	// N is the sample count.
	N int
	// FellBack is set when the requested quantile had fewer than
	// minBeyond samples above it and a lower one was reported instead.
	FellBack bool
}

// median returns the nearest-rank median of an ascending sample (0 when
// the sample is empty).
func median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)/2]
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// tailQuantile returns the nearest-rank q-quantile of an ascending sample,
// falling back to the highest quantile that still has minBeyond samples
// above it when q itself does not. A sample of minBeyond or fewer values
// supports no tail at all and reports its median.
func tailQuantile(sorted []float64, q float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{}
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx >= minBeyond {
		return quantile{Value: sorted[idx], Q: q, N: n}
	}
	if n <= minBeyond {
		return quantile{Value: median(sorted), Q: 0.5, N: n, FellBack: true}
	}
	idx = n - 1 - minBeyond
	return quantile{Value: sorted[idx], Q: float64(idx+1) / float64(n), N: n, FellBack: true}
}

// String renders the quantile with its provenance.
func (q quantile) String() string {
	s := fmt.Sprintf("p%.4g of %d samples", q.Q*100, q.N)
	if q.FellBack {
		s += ", fell back: fewer than " + strconv.Itoa(minBeyond) + " samples beyond the requested percentile"
	}
	return s
}

// parseMetrics reads a Prometheus text exposition into name → value.
// Labelled series keep their label set in the key (`x{worker="0"}`);
// comment lines and lines that do not parse are skipped, since a scrape
// is evidence for a layer metric and never a reason to fail a run.
func parseMetrics(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// metricsDelta returns after − before for every series in after.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work has no
// ratio, and 0 keeps the metric a number).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
