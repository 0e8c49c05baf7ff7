package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	var tr Tree[int, string]
	if _, ok := tr.Get(1); ok {
		t.Error("empty tree should have no keys")
	}
	tr.Set(1, "a")
	tr.Set(2, "b")
	tr.Set(1, "a2") // replace
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if v, ok := tr.Get(1); !ok || v != "a2" {
		t.Errorf("Get(1) = %q,%v", v, ok)
	}
	if v, ok := tr.Get(2); !ok || v != "b" {
		t.Errorf("Get(2) = %q,%v", v, ok)
	}
}

func TestManyInsertsOrdered(t *testing.T) {
	var tr Tree[int, int]
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Set(i, i*i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		if v, ok := tr.Get(i); !ok || v != i*i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Ascend yields sorted keys.
	prev := -1
	count := 0
	tr.Ascend(func(k, v int) bool {
		if k <= prev {
			t.Fatalf("Ascend out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Errorf("Ascend visited %d, want %d", count, n)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	var tr Tree[int, int]
	for i := 0; i < 100; i++ {
		tr.Set(i*2, i)
	}
	n := 0
	tr.Ascend(func(k, v int) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
}

func TestUpdatePostingList(t *testing.T) {
	var tr Tree[string, []int32]
	add := func(label string, id int32) {
		tr.Update(label, func(old []int32, _ bool) []int32 { return append(old, id) })
	}
	add("A", 1)
	add("B", 2)
	add("A", 3)
	if v, _ := tr.Get("A"); len(v) != 2 || v[0] != 1 || v[1] != 3 {
		t.Errorf("posting list A = %v", v)
	}
}

// Property: the tree agrees with a map reference under random interleaved
// Set/Get operations.
func TestAgainstMapReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tree[int, int]
		ref := map[int]int{}
		for op := 0; op < 400; op++ {
			k := rng.Intn(60)
			switch rng.Intn(2) {
			case 0:
				v := rng.Int()
				tr.Set(k, v)
				ref[k] = v
			default:
				v, ok := tr.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
			if tr.Len() != len(ref) {
				return false
			}
		}
		// Final: full scan matches sorted reference.
		keys := make([]int, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		i := 0
		okScan := true
		tr.Ascend(func(k, v int) bool {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				okScan = false
				return false
			}
			i++
			return true
		})
		return okScan && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStringKeys(t *testing.T) {
	var tr Tree[string, int]
	words := []string{"gamma", "alpha", "beta", "delta", "epsilon"}
	for i, w := range words {
		tr.Set(w, i)
	}
	var got []string
	tr.Ascend(func(k string, _ int) bool { got = append(got, k); return true })
	if !sort.StringsAreSorted(got) {
		t.Errorf("string keys out of order: %v", got)
	}
}

func BenchmarkSet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, b.N)
	for i := range keys {
		keys[i] = rng.Int()
	}
	var tr Tree[int, int]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(keys[i], i)
	}
}

func BenchmarkGet(b *testing.B) {
	var tr Tree[int, int]
	for i := 0; i < 100000; i++ {
		tr.Set(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(i % 100000)
	}
}
