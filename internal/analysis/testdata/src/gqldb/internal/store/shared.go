// shared.go: stand-ins for the store's aliased read surfaces — the
// accessors in aliasguard's registry. The analyzer skips internal/store
// itself (the owner manages its own representation); corpus callers live
// in the exec corpus package.
package store

// Doc mimics a registered document: the canonical collection is handed
// out by reference and must be treated as read-only.
type Doc struct {
	Name string
	coll []int
	mix  []*MemberIndex
}

// Collection returns the canonical collection by reference.
func (d *Doc) Collection() []int { return d.coll }

// Shards returns the shared shard partition.
func (d *Doc) Shards() []int { return d.coll }

// MemberIndex mimics a large member's shared §4 index.
type MemberIndex struct {
	Profiles [][]int32
}

// MemberIndex returns the shared index of the member at ordinal ord.
func (d *Doc) MemberIndex(ord int) *MemberIndex { return d.mix[ord] }

// Snapshot mimics the immutable store view.
type Snapshot struct {
	docs map[string]*Doc
}

// Doc returns the shared registered document.
func (sn *Snapshot) Doc(name string) (*Doc, bool) {
	d, ok := sn.docs[name]
	return d, ok
}

// DocStore mimics the versioned store.
type DocStore struct {
	snap *Snapshot
}

// Snapshot shares the live view.
func (s *DocStore) Snapshot() *Snapshot { return s.snap }

// Get mimics the result cache's aliased return: the cached value itself,
// never a copy.
func (c *Cache) Get(key string) (any, bool) {
	_ = key
	return nil, false
}
