// Package exec is analyzer corpus for aliasguard: the engine layer is
// where store accessors get called, and where the read-only contract on
// their results is easiest to violate.
package exec

import (
	"gqldb/internal/store"
)

// mutateCached writes into a cached result pulled from the result cache.
// Taint follows the type assertion: flagged.
func mutateCached(c *store.Cache) {
	v, ok := c.Get("q1")
	if !ok {
		return
	}
	m := v.(map[string][]int)
	m["res"] = nil // want:aliasguard `element write`
}

// dropCached deletes from a cached map — same corruption, builtin form:
// flagged.
func dropCached(c *store.Cache) {
	v, ok := c.Get("q1")
	if !ok {
		return
	}
	m := v.(map[string][]int)
	delete(m, "res") // want:aliasguard `delete`
}

// renameDoc writes a field of a shared snapshot document: flagged.
func renameDoc(sn *store.Snapshot, name string) {
	d, ok := sn.Doc(name)
	if !ok {
		return
	}
	d.Name = "copy" // want:aliasguard `field write`
}

// scribbleCollection stores through the canonical collection alias:
// flagged.
func scribbleCollection(d *store.Doc) {
	coll := d.Collection()
	if len(coll) == 0 {
		return
	}
	coll[0] = 99 // want:aliasguard `element write`
}

// growCollection appends directly to the accessor result — append can
// scribble on the shared backing array when capacity allows: flagged.
func growCollection(d *store.Doc) []int {
	return append(d.Collection(), 1) // want:aliasguard `append`
}

// cloneThenMutate copies the collection out first — the sanctioned
// clone-before-mutate shape: allowed.
func cloneThenMutate(d *store.Doc) []int {
	src := d.Collection()
	out := make([]int, len(src))
	copy(out, src)
	out = append(out, 1)
	return out
}

// readSnapshot only reads through the accessor chain: allowed.
func readSnapshot(s *store.DocStore, name string) int {
	d, ok := s.Snapshot().Doc(name)
	if !ok {
		return 0
	}
	return len(d.Collection()) + len(d.Shards())
}

// scribbleMemberIndex writes through a large member's shared index, which
// every selection worker reads: flagged.
func scribbleMemberIndex(d *store.Doc) {
	ix := d.MemberIndex(0)
	ix.Profiles[0] = nil // want:aliasguard `element write`
	ix.Profiles = nil    // want:aliasguard `field write`
}

// readMemberIndex only reads the shared index: allowed.
func readMemberIndex(d *store.Doc) int {
	return len(d.MemberIndex(0).Profiles)
}

// usedAll keeps the corpus cases referenced so the package typechecks
// without unused-symbol noise under vet.
var _ = []any{mutateCached, dropCached, renameDoc, scribbleCollection,
	growCollection, cloneThenMutate, readSnapshot, scribbleMemberIndex,
	readMemberIndex}
