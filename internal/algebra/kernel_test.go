package algebra

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/match"
)

// kernelWorkers spans the pool edge cases: the serial path, a couple of
// real fan-outs, more workers than candidates, and GOMAXPROCS.
func kernelWorkers(n int) []int { return []int{1, 2, 7, n + 5, -1} }

// TestSelectStreamMatchesReference: for every worker count and candidate
// list (all, a strided subset, none), the kernel emits exactly the
// reference's groups of the listed members, one emit per matching member,
// in ascending ordinal order. The collection spans several rounds even at
// one worker. Run under -race via `make race`.
func TestSelectStreamMatchesReference(t *testing.T) {
	c := bigCollection(300)
	p := edgePattern()
	opt := match.Options{Exhaustive: true}
	ref := map[*graph.Graph]Matched{}
	for _, m := range referenceSelection(t, p, c, opt, nil) {
		ref[m.G] = append(ref[m.G], m)
	}
	var strided []int32
	for i := 0; i < len(c); i += 3 {
		strided = append(strided, int32(i))
	}
	for name, cands := range map[string][]int32{"all": Ordinals(len(c)), "strided": strided, "none": nil} {
		for _, workers := range kernelWorkers(len(c)) {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				var want []int
				for _, i := range cands {
					if len(ref[c[i]]) > 0 {
						want = append(want, int(i))
					}
				}
				var got []int
				err := SelectStream(context.Background(), p, c, cands, opt, nil, workers, func(i int, group Matched) error {
					got = append(got, i)
					wantGroup := ref[c[i]]
					if len(group) != len(wantGroup) {
						return fmt.Errorf("member %d: %d bindings, want %d", i, len(group), len(wantGroup))
					}
					for j, m := range group {
						if m.G != c[i] || m.P != p {
							return fmt.Errorf("member %d binding %d carries the wrong graph or pattern", i, j)
						}
						for u := range wantGroup[j].M.Nodes {
							if m.M.Nodes[u] != wantGroup[j].M.Nodes[u] {
								return fmt.Errorf("member %d binding %d differs", i, j)
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("emitted ordinals %v, want %v", got, want)
				}
			})
		}
	}
}

// TestSelectStreamEmitErrorStopsMidChunk: an emit error comes back as-is,
// nothing is emitted after it, and the unmatched tail is abandoned — only
// the rounds up to the failing emit were ever handed to the matcher.
func TestSelectStreamEmitErrorStopsMidChunk(t *testing.T) {
	c := bigCollection(300)
	p := edgePattern()
	boom := errors.New("consumer has seen enough")
	for _, workers := range kernelWorkers(len(c)) {
		var matched atomic.Int64
		method := func(_ int, opt match.Options) (*match.Index, match.Options) {
			matched.Add(1)
			return nil, opt
		}
		emits := 0
		err := SelectStream(context.Background(), p, c, Ordinals(len(c)), match.Options{Exhaustive: true}, method, workers, func(int, Matched) error {
			emits++
			if emits == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the emit error", workers, err)
		}
		if emits != 3 {
			t.Fatalf("workers=%d: %d emits, want none after the failing third", workers, emits)
		}
		if workers == 1 && matched.Load() >= int64(len(c)) {
			t.Fatalf("serial kernel matched all %d members despite the early stop", len(c))
		}
	}
}

// TestSelectStreamCancelMidChunk: a context cancelled while a round is on
// the pool unwinds with ctx.Err(), and that round's groups are never
// emitted.
func TestSelectStreamCancelMidChunk(t *testing.T) {
	c := bigCollection(300)
	p := edgePattern()
	for _, workers := range kernelWorkers(len(c)) {
		ctx, cancel := context.WithCancel(context.Background())
		var matched atomic.Int64
		method := func(_ int, opt match.Options) (*match.Index, match.Options) {
			if matched.Add(1) == 10 {
				cancel()
			}
			return nil, opt
		}
		emits := 0
		err := SelectStream(ctx, p, c, Ordinals(len(c)), match.Options{Exhaustive: true}, method, workers, func(int, Matched) error {
			emits++
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if emits != 0 {
			t.Fatalf("workers=%d: %d groups emitted from a cancelled first round", workers, emits)
		}
	}
}
