// Package pool is analyzer corpus for ctxpoll: unbounded-shape loops and
// recursion-carrying loops, with polls at dominating and non-dominating
// positions.
package pool

import "context"

func work(i int) int { return i * 2 }

// Spin can iterate forever and never observes cancellation: flagged.
func Spin(n int) int {
	total := 0
	for { // want:ctxpoll `never polls`
		total++
		if total > n {
			break
		}
	}
	return total
}

// GuardedPoll polls only on the verbose branch, so an iteration on the
// other path never observes cancellation — the poll must dominate: flagged.
func GuardedPoll(ctx context.Context, verbose bool, n int) int {
	total := 0
	for { // want:ctxpoll `never polls`
		if verbose {
			if ctx.Err() != nil {
				return total
			}
		}
		total++
		if total > n {
			return total
		}
	}
}

// LateGuardedSelect hides its poll behind a nil guard — the exact shape
// the real pool worker had: on the nil path every iteration skips the
// poll: flagged.
func LateGuardedSelect(done <-chan struct{}, items []int) int {
	total := 0
	i := 0
	for { // want:ctxpoll `never polls`
		if done != nil {
			select {
			case <-done:
				return total
			default:
			}
		}
		if i >= len(items) {
			return total
		}
		total += work(items[i])
		i++
	}
}

// PollEveryIteration checks ctx.Err() at the top of every iteration:
// allowed.
func PollEveryIteration(ctx context.Context, n int) error {
	i := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		i++
		if i >= n {
			return nil
		}
	}
}

// SelectPoll selects on the done channel unconditionally — a nil channel
// never fires, so no guard is needed: allowed.
func SelectPoll(done <-chan struct{}, items []int) int {
	total := 0
	i := 0
	for {
		select {
		case <-done:
			return total
		default:
		}
		if i >= len(items) {
			return total
		}
		total += work(items[i])
		i++
	}
}

// DoneVarPoll stores ctx.Done() in a local and selects on the variable
// every iteration. Done returns <-chan struct{}, so the variable's type is
// the evidence: allowed.
func DoneVarPoll(ctx context.Context, items []int) int {
	done := ctx.Done()
	total := 0
	i := 0
	for {
		select {
		case <-done:
			return total
		default:
		}
		if i >= len(items) {
			return total
		}
		total += work(items[i])
		i++
	}
}

// stop is a named done channel; its underlying type is still a
// struct{} channel.
type stop <-chan struct{}

// NamedDonePoll holds the same ctx.Done() value under a named type:
// allowed.
func NamedDonePoll(ctx context.Context, items []int) int {
	var s stop = ctx.Done()
	total := 0
	i := 0
	for {
		select {
		case <-s:
			return total
		default:
		}
		if i >= len(items) {
			return total
		}
		total += work(items[i])
		i++
	}
}

// DrainInts receives from a value channel every iteration; a chan int
// carries data, not cancellation: flagged.
func DrainInts(ch chan int) {
	for { // want:ctxpoll `never polls`
		<-ch
	}
}

// WhileDelegated is while-style but hands the context to its callee every
// iteration — the callee owns the polling obligation: allowed.
func WhileDelegated(ctx context.Context, fn func(context.Context, int) error, n int) error {
	for n > 0 {
		if err := fn(ctx, n); err != nil {
			return err
		}
		n--
	}
	return nil
}

// Bounded3Clause is a plain counted loop with no recursion: exempt even
// without a poll (the near-miss the shape rule must not flag).
func Bounded3Clause(items []int) int {
	total := 0
	for i := 0; i < len(items); i++ {
		total += work(items[i])
	}
	return total
}

// visitAll recurses under a range loop with no poll anywhere: the loop is
// bounded per call but the recursion makes iteration count data-deep:
// flagged.
func visitAll(children map[int][]int, node int, out *[]int) {
	*out = append(*out, node)
	for _, c := range children[node] { // want:ctxpoll `never polls`
		visitAll(children, c, out)
	}
}

// visitCtx threads the context into the recursive callee: allowed.
func visitCtx(ctx context.Context, children map[int][]int, node int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, c := range children[node] {
		if err := visitCtx(ctx, children, c); err != nil {
			return err
		}
	}
	return nil
}
