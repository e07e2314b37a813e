package filter

import (
	"math/bits"

	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

// Cache is a uniprocessor cache filter: it reports, for a sequence of
// accesses, which would miss. It has no coherence; every fill installs the
// line valid.
//
// The filter is the inner loop of prefetch annotation — one Access per
// trace event — so it keeps only what that loop needs: a flat tag array,
// plus per-entry recency stamps when a set has more than one way, not
// internal/cache's coherence-state lines. Replacement is the same
// discipline as cache.Cache's Allocate restricted to always-valid lines
// (first empty way, else lowest recency, first index winning ties), so the
// marked miss sequence is bit-identical to a cache.Cache model's.
type Cache struct {
	probe Direct // the tag array; the whole filter when direct mapped
	ways  int
	stamp []uint64 // recency, parallel to probe.tags; nil when direct mapped
	clock uint64
}

// Direct is the probe of a direct-mapped filter, the paper's cache. It is
// split from Cache so that a per-event loop can inline it: Cache.Access is
// too large to inline, because its associative case is a call.
type Direct struct {
	tags      []uint64 // sets*ways, set-major; tag+1, 0 = empty
	lineShift uint
	setMask   uint64
}

// NewCache returns an empty filter with the given geometry. It panics on an
// invalid geometry, like cache.New: geometry is static configuration.
func NewCache(geom memory.Geometry) *Cache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	n := geom.Sets() * geom.Ways()
	f := &Cache{
		probe: Direct{
			tags:      make([]uint64, n),
			lineShift: uint(bits.TrailingZeros64(uint64(geom.LineSize))),
			setMask:   uint64(geom.Sets() - 1),
		},
		ways: geom.Ways(),
	}
	if f.ways > 1 {
		f.stamp = make([]uint64, n)
	}
	return f
}

// Direct returns the filter's direct-mapped probe, which shares the
// filter's tags, and whether the filter is direct mapped. The probe of an
// associative filter must not be used.
func (f *Cache) Direct() (Direct, bool) { return f.probe, f.ways == 1 }

// Access touches a and reports whether it missed (and filled).
func (f *Cache) Access(a memory.Addr) (miss bool) {
	if f.ways == 1 {
		return f.probe.Access(a)
	}
	return f.accessAssoc(uint64(a) >> f.probe.lineShift)
}

// Access is Cache.Access for a direct-mapped filter: a compare and an
// unconditional store, since a hit stores the tag already there. Recency
// stamps are irrelevant with one way per set.
func (d Direct) Access(a memory.Addr) (miss bool) {
	tag := uint64(a) >> d.lineShift
	t := &d.tags[tag&d.setMask]
	miss = *t != tag+1
	*t = tag + 1
	return miss
}

// accessAssoc is Access for associative sets: LRU with first-index
// tie-breaking, matching cache.Cache's Allocate over always-valid lines.
// A miss takes one pass over the stamps for its victim: an empty way's
// stamp is 0 and a filled way's at least 1, so the first lowest stamp is
// the first empty way if there is one, else the least recently used. The
// hit scan reads the tags alone, because most accesses hit.
func (f *Cache) accessAssoc(tag uint64) (miss bool) {
	si := int(tag&f.probe.setMask) * f.ways
	set := f.probe.tags[si : si+f.ways]
	stamp := f.stamp[si : si+f.ways]
	f.clock++
	for i, t := range set {
		if t == tag+1 {
			stamp[i] = f.clock
			return false
		}
	}
	victim := 0
	for i, st := range stamp {
		if st < stamp[victim] {
			victim = i
		}
	}
	set[victim] = tag + 1
	stamp[victim] = f.clock
	return true
}

// Holds reports whether the filter currently holds a's line.
func (f *Cache) Holds(a memory.Addr) bool {
	tag := uint64(a) >> f.probe.lineShift
	si := int(tag&f.probe.setMask) * f.ways
	for _, t := range f.probe.tags[si : si+f.ways] {
		if t == tag+1 {
			return true
		}
	}
	return false
}

// MarkMisses runs a processor's stream through a uniprocessor filter with
// geometry geom and returns a bitmap, indexed by event position, marking the
// demand accesses that miss. Lock and unlock accesses update the filter
// state (they occupy cache space) but are never marked: synchronization
// variables are not prefetch candidates.
func MarkMisses(s trace.Stream, geom memory.Geometry) []bool {
	f := NewCache(geom)
	miss := make([]bool, len(s))
	for i, e := range s {
		switch e.Kind {
		case trace.Read, trace.Write:
			miss[i] = f.Access(e.Addr)
		case trace.Lock, trace.Unlock:
			f.Access(e.Addr)
		}
	}
	return miss
}

// PWSGeometry returns the paper's 16-line fully-associative temporal-
// locality filter for the given line size.
func PWSGeometry(lineSize int) memory.Geometry {
	return memory.Geometry{CacheSize: 16 * lineSize, LineSize: lineSize, Assoc: 0}
}

// MarkWriteSharedMisses runs only the stream's references to write-shared
// lines (per isWS) through the 16-line associative filter and marks the
// misses — the redundant prefetch candidates of the PWS strategy. Lock and
// unlock events are excluded: prefetching a mutex is never useful.
func MarkWriteSharedMisses(s trace.Stream, geom memory.Geometry, isWS func(memory.Addr) bool) []bool {
	f := NewCache(PWSGeometry(geom.LineSize))
	miss := make([]bool, len(s))
	for i, e := range s {
		if !e.Kind.IsDemand() || !isWS(e.Addr) {
			continue
		}
		miss[i] = f.Access(e.Addr)
	}
	return miss
}
