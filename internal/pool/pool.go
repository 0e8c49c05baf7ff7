// Package pool provides the bounded worker pool shared by the parallel bulk
// operators (parallel selection, product, join, composition and the exec
// pipeline fan-out). The pool runs index-addressed work — fn(i) for i in
// [0,n) — so callers get deterministic output by writing results into
// index-partitioned slots; the pool itself never reorders anything.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gqldb/internal/obs"
)

// chunk caps the number of consecutive indices a worker claims per atomic
// cursor advance. Per-item work in the algebra is often microseconds (one
// small-graph match, one template instantiation), so claiming batches keeps
// the cursor off the contention path while still load-balancing: a stuck
// worker strands at most chunk-1 items. A round of fewer than
// chunk×workers items claims ceil(n/workers), so it still spreads over
// every worker.
const chunk = 16

// Workers resolves a requested worker count against an item count: zero or
// negative means GOMAXPROCS, and the count is capped at n (never below 1).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes fn(i) for every i in [0, n) on up to workers goroutines
// (Workers resolves the count) and blocks until all claimed work finished.
//
// Determinism contract: indices are claimed in ascending chunks of
// min(16, ceil(n/workers)), every claimed chunk runs to its own first error,
// and the error returned is the one with the smallest index among all
// recorded — exactly the error a serial loop would return first.
// Cancellation is polled between chunk claims (and per item in the serial
// workers<=1 path); when the context is cancelled and no fn error was
// recorded, Run returns ctx.Err().
//
// fn must be safe for concurrent invocation with distinct indices and must
// confine its writes to per-index state (result slots), never to shared
// accumulators.
func Run(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// One registry update per bulk-operator execution — never per item.
	obs.PoolRuns.Inc()
	obs.PoolTasks.Add(int64(n))
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// The serial path is busy end to end, so utilization is measured
		// around the whole loop — one clock read per Run, never per item.
		executed := 0
		start := time.Now()
		defer func() {
			obs.PoolWorkerItems.Add(0, int64(executed))
			obs.PoolWorkerBusy.Add(0, int64(time.Since(start)))
		}()
		for i := 0; i < n; i++ {
			// A nil done (ctx == nil) never fires, so the poll is safe and
			// unconditional — every iteration observes cancellation.
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if err := fn(i); err != nil {
				return err
			}
			executed++
		}
		return nil
	}

	claim := (n + workers - 1) / workers
	if claim > chunk {
		claim = chunk
	}
	// firstErr is each worker's lowest-index error; slots are padded only by
	// the natural struct size — false sharing is irrelevant next to fn cost.
	type firstErr struct {
		idx int
		err error
	}
	perWorker := make([]firstErr, workers)
	var stop atomic.Bool
	var cancelled atomic.Bool
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			perWorker[w].idx = -1
			// Utilization is accumulated per chunk (one clock read per
			// claim) and flushed to the registry once per worker per Run.
			var items, busy int64
			defer func() {
				obs.PoolWorkerItems.Add(w, items)
				obs.PoolWorkerBusy.Add(w, busy)
			}()
			for {
				if stop.Load() {
					return
				}
				// Unconditional poll: a nil done (ctx == nil) never fires,
				// and every chunk claim observes cancellation.
				select {
				case <-done:
					cancelled.Store(true)
					stop.Store(true)
					return
				default:
				}
				start := int(cursor.Add(int64(claim))) - claim
				if start >= n {
					return
				}
				end := start + claim
				if end > n {
					end = n
				}
				// The claimed chunk runs to its own first error even after
				// stop is set elsewhere: chunks are claimed in ascending
				// order, so completing every claimed chunk guarantees the
				// minimum recorded error index equals the serial first error.
				chunkStart := time.Now()
				for i := start; i < end; i++ {
					if err := fn(i); err != nil {
						perWorker[w] = firstErr{idx: i, err: err}
						stop.Store(true)
						break
					}
					items++
				}
				busy += int64(time.Since(chunkStart))
			}
		}(w)
	}
	wg.Wait()

	best := firstErr{idx: -1}
	for _, fe := range perWorker {
		if fe.idx >= 0 && (best.idx < 0 || fe.idx < best.idx) {
			best = fe
		}
	}
	if best.idx >= 0 {
		return best.err
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
