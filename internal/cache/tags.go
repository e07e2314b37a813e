package cache

import (
	"fmt"
	"math/bits"

	"busprefetch/internal/memory"
)

// Tags is a duplicate-tag array: a second copy of the tags of a group of up
// to 64 caches of one geometry, laid out so that one set's ways across every
// cache of the group are contiguous. It is the snoop filter of JETTY
// (Moshovos et al., HPCA 2001) in its exact, duplicate-tag form: Holders
// answers "which caches hold this line's tag?" from one row instead of
// probing each cache.
//
// Each slot holds tag+1, or 0 for a way never tagged. The copy is written in
// exactly one place, Allocate — the only code that installs or displaces a
// tag — so it never goes stale: a tag stays in its slot, valid or
// invalidated, until Allocate displaces it, just as it does in the cache.
type Tags struct {
	geom      memory.Geometry
	n         int // caches in the group
	ways      int
	rowLen    int // n * ways: one set's slots across the group
	lineShift uint
	setMask   uint64
	// slots is sets × n × ways entries: set-major, then cache, then way, so
	// cache i's way w of set s is slots[s*rowLen + i*ways + w] — the same
	// way index its Cache.lines uses.
	slots []uint64
}

// NewTags returns an empty duplicate-tag array for n caches of geometry
// geom; build the member caches with NewCache. Like New, it panics on an
// invalid geometry, and on n outside [1, 64] (a holder set is a uint64).
func NewTags(geom memory.Geometry, n int) *Tags {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("cache: %d caches outside the duplicate-tag limit [1, 64]", n))
	}
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	t := &Tags{
		geom:      geom,
		n:         n,
		ways:      geom.Ways(),
		rowLen:    n * geom.Ways(),
		lineShift: uint(bits.TrailingZeros64(uint64(geom.LineSize))),
		setMask:   uint64(geom.Sets() - 1),
	}
	t.slots = make([]uint64, geom.Sets()*t.rowLen)
	return t
}

// NewCache builds cache id of the group: an empty cache of the group's
// geometry whose Allocate keeps its ways of the array current. It panics
// when id is outside [0, n).
func (t *Tags) NewCache(id int) *Cache {
	if id < 0 || id >= t.n {
		panic(fmt.Sprintf("cache: member %d of a duplicate-tag array of %d caches", id, t.n))
	}
	c := New(t.geom)
	c.tags, c.tagOff = t, id*t.ways
	return c
}

// Holders returns the set of caches holding the tag of a's line, valid or
// invalidated: bit i is set exactly when cache i's Lookup(a) is non-nil.
func (t *Tags) Holders(a memory.Addr) uint64 {
	tag := uint64(a) >> t.lineShift
	row := t.slots[int(tag&t.setMask)*t.rowLen:][:t.rowLen]
	want := tag + 1
	var mask uint64
	if t.ways == 1 {
		// Direct-mapped, the paper's cache: slot i is cache i. The match is
		// turned into a bit without a branch, because which of the caches
		// hold a shared line is unpredictable.
		for i, v := range row {
			mask |= bit(v == want) << uint(i)
		}
		return mask
	}
	for i := 0; i < t.n; i++ {
		for _, v := range row[i*t.ways:][:t.ways] {
			mask |= bit(v == want) << uint(i)
		}
	}
	return mask
}

// bit converts a match to 0 or 1; the compiler emits it as a flag set, not
// a branch.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
