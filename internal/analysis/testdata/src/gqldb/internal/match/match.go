// Package match is analyzer corpus: hot-path cases for panicfree,
// valuecmp, gosafe and recbound, with both flagged and allowed forms.
package match

import (
	"fmt"
	"reflect"

	"gqldb/internal/graph"
	"gqldb/internal/index"
	"gqldb/internal/obs"
	"gqldb/internal/pattern"
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

// ---- recbound ----

// Collatz recurses with no visible bound: flagged.
func Collatz(n int) int { // want:recbound `recursive function Collatz`
	if n <= 1 {
		return 0
	}
	if n%2 == 0 {
		return 1 + Collatz(n/2)
	}
	return 1 + Collatz(3*n+1)
}

// Even and Odd are mutually recursive with no bound: both flagged.
func Even(n int) bool { // want:recbound `recursive function Even`
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

// Odd is the other half of the cycle.
func Odd(n int) bool { // want:recbound `recursive function Odd`
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

// WalkDepth threads a depth budget: allowed.
func WalkDepth(n, depth int) int {
	if depth <= 0 || n <= 1 {
		return 0
	}
	return 1 + WalkDepth(n/2, depth-1)
}

// DrillLucky names a parameter "depth" but never checks or decrements it —
// the bound is spelling, not dataflow. The lexical scan accepted this;
// the dataflow rules flag it.
func DrillLucky(n, depth int) int { // want:recbound `recursive function DrillLucky`
	if n <= 1 {
		return depth
	}
	return DrillLucky(n/2, depth)
}

// DrillChecked passes depth through unchanged but gates on it: allowed
// (the check is the bound; think cancellation flags).
func DrillChecked(n, depth int) int {
	if depth <= 0 || n <= 1 {
		return 0
	}
	return DrillChecked(n/2, depth)
}

// GuardedOffPath checks depth only on a sibling branch: the recursion at
// the bottom runs whether or not the check did, so the check dominates
// nothing. The lexical rule ("a bound word appears in some condition")
// accepted this; the dominance rule flags it.
func GuardedOffPath(n, depth int) int { // want:recbound `recursive function GuardedOffPath`
	if n > 100 {
		if depth <= 0 {
			return 0
		}
	}
	return GuardedOffPath(n/2, depth)
}

// CheckedAfter checks depth only after the recursive call has already
// happened — a gate behind the horse. Flagged under dominance; the lexical
// rule accepted it.
func CheckedAfter(n, depth int) int { // want:recbound `recursive function CheckedAfter`
	if n <= 1 {
		return 0
	}
	r := CheckedAfter(n/2, depth)
	if depth <= 0 {
		return 0
	}
	return r
}

// LoopGuarded recurses inside a loop whose head condition checks the
// budget: the head dominates the body, so every recursive call is gated —
// recbound allows it. The same loop carries recursion with no
// cancellation poll, so ctxpoll (rightly) still fires on it.
func LoopGuarded(n, depth int) int {
	total := 0
	for i := 0; i < depth; i++ { // want:ctxpoll `never polls`
		total += LoopGuarded(n/2, depth)
	}
	return total
}

// ShortCircuitGuard gates the recursion inside the same condition via
// short-circuit evaluation: allowed.
func ShortCircuitGuard(n, depth int) bool {
	if depth > 0 && ShortCircuitGuard(n/2, depth) {
		return true
	}
	return false
}

// Iterative has no recursion at all: allowed.
func Iterative(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}

// ---- ctxpoll (registry poll helper) ----

// searcher mimics the real matcher's cancellation plumbing: the context's
// Done channel is captured as a field, and cancelled() is the registered
// poll helper (ctxPollFuncs).
type searcher struct {
	ctxDone <-chan struct{}
	done    bool
	cand    [][]int
}

// cancelled is the canonical per-step poll.
func (s *searcher) cancelled() bool {
	select {
	case <-s.ctxDone:
		return true
	default:
		return false
	}
}

// rec backtracks with a registry poll dominating every iteration of the
// candidate loop: allowed by ctxpoll (and the cancel-word check dominates
// the recursion, so recbound allows it too).
func (s *searcher) rec(i int) {
	if i >= len(s.cand) {
		return
	}
	for range s.cand[i] {
		if s.done || s.cancelled() {
			return
		}
		s.rec(i + 1)
	}
}

// drill recurses under its loop without any poll: ctxpoll flags the loop
// (and recbound flags the function — no bound dominates the call).
func (s *searcher) drill(i int) { // want:recbound `recursive function drill`
	if i >= len(s.cand) {
		return
	}
	for range s.cand[i] { // want:ctxpoll `never polls`
		s.drill(i + 1)
	}
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
