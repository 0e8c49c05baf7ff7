package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// generated is everything buildInputs derives from the seed, short of the
// oracle's answers (which are a function of the rest).
type generated struct {
	corpus   []byte
	programs []string
	writes   []string
	sched    [clients][]int32
}

func generate(t *testing.T, workload string, seed int64) generated {
	t.Helper()
	dir := t.TempDir()
	path, coll, err := writeCorpus(workload, seed, quickSizes, dir)
	if err != nil {
		t.Fatal(err)
	}
	var g generated
	if g.corpus, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	switch workload {
	case wlPPIClique:
		g.programs = cliquePrograms(coll[0], seed, quickSizes.cliquesPerSize)
	case wlMutateMix:
		g.programs = mutPrograms(quickSizes.mutPrograms)
		for c := 0; c < clients; c++ {
			for _, w := range clientWrites(seed, c, 64) {
				g.writes = append(g.writes, w.src)
			}
		}
	default:
		g.programs = collPrograms(coll, seed, quickSizes.collPrograms)
	}
	g.sched = schedules(workload, seed, len(g.programs), quickSizes)
	return g
}

// TestSeedIsTheOnlyRandomness: the same seed gives byte-identical corpus
// files, programs, writes and schedules; another seed gives others.
func TestSeedIsTheOnlyRandomness(t *testing.T) {
	for _, w := range workloadNames {
		a, b, other := generate(t, w, 11), generate(t, w, 11), generate(t, w, 12)
		if !bytes.Equal(a.corpus, b.corpus) {
			t.Errorf("%s: seed 11 gave two different corpus files", w)
		}
		if !reflect.DeepEqual(a.programs, b.programs) || !reflect.DeepEqual(a.writes, b.writes) || !reflect.DeepEqual(a.sched, b.sched) {
			t.Errorf("%s: seed 11 gave two different sets of programs, writes or schedules", w)
		}
		if bytes.Equal(a.corpus, other.corpus) {
			t.Errorf("%s: seeds 11 and 12 gave the same corpus file", w)
		}
		if reflect.DeepEqual(a.sched, other.sched) {
			t.Errorf("%s: seeds 11 and 12 gave the same schedules", w)
		}
		if a.sched[0] == nil || reflect.DeepEqual(a.sched[0], a.sched[1]) {
			t.Errorf("%s: the two clients share one schedule", w)
		}
	}
}

// TestWriteModel replays a client's write sequence against the generator's
// own bookkeeping: names added are fresh, names removed exist, and no
// batch touches another client's scratch graphs or a real venue.
func TestWriteModel(t *testing.T) {
	live := map[string]bool{}
	creates, drops := 0, 0
	for _, w := range clientWrites(5, 1, 4000) {
		if !strings.Contains(w.src, `doc("DBLP")`) || !strings.Contains(w.src, "scratch_c1_") || strings.Contains(w.src, "scratch_c0_") {
			t.Fatalf("batch leaves client 1's scratch graphs: %s", w.src)
		}
		for _, n := range w.removes {
			if !live[n] {
				t.Fatalf("batch removes %q, which is not there: %s", n, w.src)
			}
			delete(live, n)
		}
		for _, n := range w.adds {
			if live[n] {
				t.Fatalf("batch adds %q twice: %s", n, w.src)
			}
			live[n] = true
		}
		if got := w.want.NodesAdded - w.want.NodesDeleted; w.want.GraphsDropped == 0 && got != len(w.adds)-len(w.removes) {
			t.Fatalf("summary %+v disagrees with adds %v removes %v", w.want, w.adds, w.removes)
		}
		creates += w.want.GraphsCreated
		drops += w.want.GraphsDropped
	}
	if creates < scratchSlots || drops == 0 {
		t.Fatalf("4000 batches made %d creates and %d drops; want every slot created and some dropped", creates, drops)
	}
	for _, v := range venues {
		if v == scratchVenue {
			t.Fatalf("scratch venue %q is a real venue: read answers would change under writes", v)
		}
	}
}
