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
// answers "which caches hold a valid copy of this line?" from one row
// instead of probing each cache.
//
// Each slot holds tag+1 while that way holds a valid copy, and 0 otherwise.
// It is written in two places: Allocate, the only code that installs or
// displaces a tag (its caller then gives the line a valid state), and
// SnoopTable, which clears it when a snoop invalidates the copy. An
// invalidated copy keeps its tag in the cache, for miss classification, but
// not here: no snoop can change it, so a snoop need not visit it. Code that
// writes Line.State directly must therefore write only valid states.
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
// geometry whose Allocate and SnoopTable keep its ways of the array
// current. It panics when id is outside [0, n).
func (t *Tags) NewCache(id int) *Cache {
	if id < 0 || id >= t.n {
		panic(fmt.Sprintf("cache: member %d of a duplicate-tag array of %d caches", id, t.n))
	}
	c := New(t.geom)
	c.tags, c.tagOff = t, id*t.ways
	return c
}

// Holders returns the set of caches holding a valid copy of a's line: bit i
// is set exactly when cache i's HoldsValid(a) is true.
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
