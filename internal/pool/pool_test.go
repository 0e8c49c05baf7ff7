package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gqldb/internal/obs"
)

func TestRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		for _, n := range []int{0, 1, 15, 16, 17, 100, 1000} {
			hits := make([]int32, n)
			err := Run(context.Background(), n, workers, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	// Errors at several indices: the serial-first (lowest) one must win
	// regardless of worker count and scheduling.
	bad := map[int]bool{37: true, 200: true, 611: true}
	want := 37
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 20; trial++ {
			err := Run(context.Background(), 1000, workers, func(i int) error {
				if bad[i] {
					return fmt.Errorf("item %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("item %d failed", want) {
				t.Fatalf("workers=%d: err = %v, want item %d", workers, err, want)
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := Run(ctx, 10000, workers, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if int(ran.Load()) == 10000 {
			t.Fatalf("workers=%d: cancellation did not stop the pool", workers)
		}
	}
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, 100, 4, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunErrorBeatsCancellation(t *testing.T) {
	// A recorded fn error takes precedence over a concurrent cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sentinel := errors.New("boom")
	err := Run(ctx, 100, 4, func(i int) error {
		if i == 3 {
			cancel()
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRunNilContext(t *testing.T) {
	var ran atomic.Int32
	if err := Run(nil, 50, 4, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d of 50", ran.Load())
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(5, 3); w != 3 {
		t.Fatalf("Workers(5,3) = %d", w)
	}
	if w := Workers(2, 100); w != 2 {
		t.Fatalf("Workers(2,100) = %d", w)
	}
	if w := Workers(0, 0); w != 1 {
		t.Fatalf("Workers(0,0) = %d", w)
	}
	if w := Workers(-1, 8); w < 1 || w > 8 {
		t.Fatalf("Workers(-1,8) = %d", w)
	}
}

func TestRunWorkerUtilizationCounters(t *testing.T) {
	// Serial path: everything lands on worker ordinal 0.
	items0 := obs.PoolWorkerItems.Value(0)
	busy0 := obs.PoolWorkerBusy.Value(0)
	if err := Run(context.Background(), 10, 1, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := obs.PoolWorkerItems.Value(0) - items0; got != 10 {
		t.Fatalf("serial items delta = %d, want 10", got)
	}
	if got := obs.PoolWorkerBusy.Value(0) - busy0; got < int64(10*time.Millisecond) {
		t.Fatalf("serial busy delta = %v, want >= 10ms", time.Duration(got))
	}

	// Parallel path: the deltas across all worker ordinals must sum to the
	// item count, and every busy delta is nonnegative.
	const workers, n = 4, 64
	var before [workers]int64
	for w := 0; w < workers; w++ {
		before[w] = obs.PoolWorkerItems.Value(w)
	}
	if err := Run(context.Background(), n, workers, func(i int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for w := 0; w < workers; w++ {
		total += obs.PoolWorkerItems.Value(w) - before[w]
	}
	if total != n {
		t.Fatalf("parallel items delta sum = %d, want %d", total, n)
	}
}

// TestRunSpreadsShortRounds: a round with no more items than workers runs
// every item on its own goroutine — each fn waits until all four have
// started, which a single worker claiming the whole round never reaches.
func TestRunSpreadsShortRounds(t *testing.T) {
	const n = 4
	var started atomic.Int32
	all := make(chan struct{})
	err := Run(context.Background(), n, n, func(i int) error {
		if started.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("item %d: only %d of %d items started", i, started.Load(), n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
