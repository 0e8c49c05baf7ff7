// Package match is analyzer corpus: hot-path cases for panicfree,
// valuecmp and gosafe, with both flagged and allowed forms.
package match

import (
	"context"
	"fmt"
	"reflect"

	"gqldb/internal/graph"
	"gqldb/internal/index"
	"gqldb/internal/obs"
	"gqldb/internal/pattern"
	"gqldb/internal/pool"
)

// ---- panicfree ----

// Explode panics on a hot path: flagged.
func Explode() {
	panic("match: boom") // want:panicfree `panic in hot-path function Explode`
}

// SafeErr returns an error instead: allowed.
func SafeErr() error {
	return fmt.Errorf("match: nothing to do")
}

// ---- valuecmp ----

// EqValues compares Values with ==: flagged.
func EqValues(a, b graph.Value) bool {
	return a == b // want:valuecmp `== on graph.Value`
}

// NeqValues compares Values with !=: flagged.
func NeqValues(a, b graph.Value) bool {
	return a != b // want:valuecmp `!= on graph.Value`
}

// DeepEqValues uses reflect.DeepEqual: flagged.
func DeepEqValues(a, b []graph.Value) bool {
	return reflect.DeepEqual(a, b) // want:valuecmp `reflect.DeepEqual on graph.Value`
}

// EqTuples compares Tuple pointers with ==: flagged.
func EqTuples(a, b *graph.Tuple) bool {
	return a == b // want:valuecmp `== on graph.Tuple`
}

// NilCheck against nil is a presence check: allowed.
func NilCheck(t *graph.Tuple) bool {
	return t == nil
}

// EqValuesOK goes through the sanctioned method: allowed.
func EqValuesOK(a, b graph.Value) bool {
	return a.Equal(b)
}

// ---- gosafe ----

// Stats mimics the evaluation statistics; RecordOp appends without
// synchronization, so it must only run on the coordinating goroutine.
type Stats struct {
	Ops []string
}

// RecordOp appends one operator record.
func (s *Stats) RecordOp(op string) {
	s.Ops = append(s.Ops, op)
}

// RacyWorkers shows each racy shape; PartitionedWorkers below is the
// sanctioned form.
func RacyWorkers(g *graph.Graph, b *graph.Builder, st *Stats, in *index.Interner, sp *obs.Span, vals []int) []int {
	var shared []int
	ch := make(chan struct{})
	go func() {
		g.AddNode("x")             // want:gosafe `non-thread-safe internal/graph.Graph.AddNode`
		b.AddNode("y")             // want:gosafe `non-thread-safe internal/graph.Builder.AddNode`
		b.SetTuple(nil)            // want:gosafe `non-thread-safe internal/graph.Builder.SetTuple`
		st.RecordOp("selection")   // want:gosafe `non-thread-safe internal/match.Stats.RecordOp`
		in.Intern("a")             // want:gosafe `non-thread-safe internal/index.Interner.Intern`
		sp.End()                   // want:gosafe `non-thread-safe internal/obs.Span.End`
		sp.SetAttr("k", "v")       // want:gosafe `non-thread-safe internal/obs.Span.SetAttr`
		shared = append(shared, 1) // want:gosafe `captured variable "shared"`
		close(ch)
	}()
	<-ch
	return shared
}

// PoolWorkers: a pool.Run literal runs on the pool's workers, so the racy
// shapes are flagged there too; the index-partitioned slot write is not.
func PoolWorkers(ctx context.Context, st *Stats, vals []int) ([]int, int, error) {
	total := 0
	out := make([]int, len(vals))
	err := pool.Run(ctx, len(vals), 2, func(i int) error {
		out[i] = vals[i]
		total += vals[i]         // want:gosafe `captured variable "total"`
		st.RecordOp("selection") // want:gosafe `non-thread-safe internal/match.Stats.RecordOp`
		return nil
	})
	return out, total, err
}

// TracedWorkers uses only the worker-safe span mutators: allowed.
func TracedWorkers(sp *obs.Span, vals []int) {
	ch := make(chan struct{})
	go func() {
		child := sp.StartChild("op")
		for range vals {
			sp.Add("items", 1)
		}
		_ = child
		close(ch)
	}()
	<-ch
}

// PartitionedWorkers writes only worker-owned slots and locals: allowed.
func PartitionedWorkers(vals []int) []int {
	results := make([]int, len(vals))
	ch := make(chan struct{})
	go func() {
		local := 0
		for i := range vals {
			local++
			results[i] = vals[i] * 2
		}
		_ = local
		close(ch)
	}()
	<-ch
	return results
}

// SuppressedWrite shows the explicit escape hatch: allowed via comment.
func SuppressedWrite() int {
	total := 0
	ch := make(chan struct{})
	go func() {
		total = 41 //gqlvet:ignore gosafe -- single goroutine, joined before read
		close(ch)
	}()
	<-ch
	return total + 1
}

// ---- plan cache (gosafe + aliasguard registries) ----

// Plan mimics the cached planning output: shared, read-only after Put.
type Plan struct {
	Order   []int
	EstCost float64
}

// PlanCache mimics the search-plan cache; Get hands out shared plans and
// SetCapacity is the startup-only unsynchronized mutator.
type PlanCache struct {
	capacity int
	plans    map[string]*Plan
}

// SetCapacity resizes the bound without locking.
func (c *PlanCache) SetCapacity(n int) { c.capacity = n }

// Get returns the shared plan for key.
func (c *PlanCache) Get(key string) (*Plan, bool) {
	p, ok := c.plans[key]
	return p, ok
}

// ResizeInWorker calls the startup-only mutator from a goroutine: flagged.
func ResizeInWorker(c *PlanCache) {
	ch := make(chan struct{})
	go func() {
		c.SetCapacity(8) // want:gosafe `non-thread-safe internal/match.PlanCache.SetCapacity`
		close(ch)
	}()
	<-ch
}

// ResizeAtStartup calls it before any worker exists: allowed.
func ResizeAtStartup(c *PlanCache) {
	c.SetCapacity(8)
}

// scribblePlan writes through the shared cached plan — every concurrent
// search holding it sees the corruption: flagged.
func scribblePlan(c *PlanCache) {
	pl, ok := c.Get("shape")
	if !ok {
		return
	}
	pl.Order[0] = 1 // want:aliasguard `element write`
	pl.EstCost = 0  // want:aliasguard `field write`
}

// adoptPlan copies the mutable parts out first — the sanctioned shape the
// real searcher uses: allowed.
func adoptPlan(c *PlanCache) []int {
	pl, ok := c.Get("shape")
	if !ok {
		return nil
	}
	order := make([]int, len(pl.Order))
	copy(order, pl.Order)
	return order
}

// scribbleHalves writes through the compiled pattern's shared adjacency —
// every worker matching the pattern reads it: flagged.
func scribbleHalves(p *pattern.Pattern) []pattern.Half {
	hs := p.Halves()[0]
	hs[0].Out = false                      // want:aliasguard `field write`
	return append(hs, pattern.Half{To: 1}) // want:aliasguard `append`
}

// walkHalves only reads the shared adjacency: allowed.
func walkHalves(p *pattern.Pattern) int {
	n := 0
	for _, h := range p.Halves()[0] {
		n += h.To
	}
	return n
}

var _ = []any{ResizeInWorker, ResizeAtStartup, scribblePlan, adoptPlan, scribbleHalves, walkHalves}
