// Package btree provides an in-memory B-tree keyed by any ordered type.
// It backs the node-attribute indexes of §4.2 ("node attributes can be
// indexed directly using traditional index structures such as B-trees") and
// the per-column indexes of the SQL baseline engine, mirroring the B-tree
// indices built on MySQL's V and E tables in the paper's experiments.
package btree

import "cmp"

// degree is the minimum degree t: every node except the root holds between
// t-1 and 2t-1 keys. 16 keeps nodes within a couple of cache lines for
// typical key sizes.
const degree = 16

const maxKeys = 2*degree - 1

// Tree is a B-tree map from K to V. The zero value is an empty tree.
type Tree[K cmp.Ordered, V any] struct {
	root *node[K, V]
	size int
}

type node[K cmp.Ordered, V any] struct {
	keys     []K
	vals     []V
	children []*node[K, V] // nil for leaves
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

// find returns the index of the first key >= k and whether it equals k.
func (n *node[K, V]) find(k K) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp.Less(n.keys[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == k
}

// Len returns the number of keys stored.
func (t *Tree[K, V]) Len() int { return t.size }

// Get returns the value stored under k.
func (t *Tree[K, V]) Get(k K) (V, bool) {
	var zero V
	n := t.root
	for n != nil {
		i, eq := n.find(k)
		if eq {
			return n.vals[i], true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	return zero, false
}

// Set inserts or replaces the value under k.
func (t *Tree[K, V]) Set(k K, v V) {
	if t.root == nil {
		t.root = &node[K, V]{keys: []K{k}, vals: []V{v}}
		t.size = 1
		return
	}
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node[K, V]{children: []*node[K, V]{old}}
		t.root.splitChild(0)
	}
	if t.root.insert(k, v) {
		t.size++
	}
}

// Update applies fn to the value under k (zero V when absent) and stores the
// result; used to build posting lists without a double lookup.
func (t *Tree[K, V]) Update(k K, fn func(old V, present bool) V) {
	old, ok := t.Get(k)
	t.Set(k, fn(old, ok))
}

// splitChild splits the full i-th child of n, lifting its median into n.
func (n *node[K, V]) splitChild(i int) {
	child := n.children[i]
	right := &node[K, V]{
		keys: append([]K(nil), child.keys[degree:]...),
		vals: append([]V(nil), child.vals[degree:]...),
	}
	if !child.leaf() {
		right.children = append([]*node[K, V](nil), child.children[degree:]...)
		child.children = child.children[:degree]
	}
	medianK, medianV := child.keys[degree-1], child.vals[degree-1]
	child.keys = child.keys[:degree-1]
	child.vals = child.vals[:degree-1]

	n.keys = append(n.keys, medianK)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = medianK
	n.vals = append(n.vals, medianV)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = medianV
	n.children = append(n.children, right)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insert adds k below a non-full node; reports whether the tree grew.
func (n *node[K, V]) insert(k K, v V) bool {
	i, eq := n.find(k)
	if eq {
		n.vals[i] = v
		return false
	}
	if n.leaf() {
		var zk K
		var zv V
		n.keys = append(n.keys, zk)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, zv)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		return true
	}
	if len(n.children[i].keys) == maxKeys {
		n.splitChild(i)
		if cmp.Less(n.keys[i], k) {
			i++
		} else if n.keys[i] == k {
			n.vals[i] = v
			return false
		}
	}
	return n.children[i].insert(k, v)
}

// Ascend visits all pairs in key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(K, V) bool) {
	t.root.ascend(fn)
}

func (n *node[K, V]) ascend(fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i, k := range n.keys {
		if !n.leaf() && !n.children[i].ascend(fn) {
			return false
		}
		if !fn(k, n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(fn)
	}
	return true
}
