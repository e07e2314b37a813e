package cache

import (
	"math/bits"

	"busprefetch/internal/memory"
	"busprefetch/internal/names"
)

// State is a per-line coherence state. Invalid, Shared, Exclusive and
// Modified are the Illinois (MESI) states the paper's protocol uses;
// SharedMod additionally serves the write-update (Dragon) protocol, which
// allows dirty lines to be shared.
type State uint8

const (
	// Invalid: the line holds no usable data. A line can be Invalid with a
	// valid tag, which is how the simulator recognizes invalidation misses
	// ("the tags match, but the state has been marked invalid").
	Invalid State = iota
	// Shared: clean, possibly present in other caches. (Dragon's
	// shared-clean Sc state is this same value.)
	Shared
	// Exclusive is the private-clean state: clean and guaranteed to be in no
	// other cache, so it can be written without a bus operation.
	Exclusive
	// Modified: dirty and exclusively owned; must be written back on
	// replacement and supplied by this cache on remote access.
	Modified
	// SharedMod is the write-update (Dragon) shared-dirty state: present in
	// other caches, modified relative to memory, and this cache is the
	// update-owner responsible for supplying data and the eventual
	// writeback. Unreachable under the write-invalidate protocols.
	SharedMod
	// NumStates is the number of coherence states. Dense per-state transition
	// tables (see SnoopTable and internal/sim's protocol tables) are indexed
	// [NumStates]State.
	NumStates
)

var stateNames = []string{"I", "S", "E", "M", "Sm"}

func (s State) String() string { return names.Lookup("State", stateNames, int(s)) }

// Valid reports whether the state holds usable data.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the state is modified relative to memory, so a
// replacement owes a writeback bus operation.
func (s State) Dirty() bool { return s == Modified || s == SharedMod }

// NoInvalidatingWord marks a line that was not invalidated by a remote write
// (or whose invalidation word is unknown).
const NoInvalidatingWord = -1

// Line is one cache line with the metadata the paper's analysis needs. Its
// fields are ordered widest first so a Line packs into 32 bytes: the
// simulation kernel walks arrays of them on every reference.
type Line struct {
	// Tag is the global line number (address / line size). Meaningful even
	// when State is Invalid, so invalidation misses can be recognized.
	Tag uint64
	// WordsAccessed is a bitmask of words demand-accessed by the local
	// processor during the line's current (or, after invalidation, most
	// recent) residence. Used for false-sharing classification.
	WordsAccessed uint64
	// lru is the per-set recency stamp (larger = more recent).
	lru uint64
	// State is the coherence state.
	State State
	// PrefetchedUnused is set when the line was filled by a prefetch and no
	// demand access has touched it yet. It survives invalidation so a
	// subsequent miss can be classified "prefetched, but disappeared from
	// the cache before use".
	PrefetchedUnused bool
	// InvalidatingWord is the word index written by the remote processor
	// whose write invalidated this line, or NoInvalidatingWord. An
	// invalidation miss is a false-sharing miss when the local processor
	// never accessed that word (Eggers & Jeremiassen's definition, paper
	// §4.4).
	InvalidatingWord int8

	// tagValid distinguishes a never-used line from an invalidated one.
	tagValid bool
}

// HasTag reports whether the line's tag field holds a real (possibly
// invalidated) line number rather than cold-start garbage.
func (l *Line) HasTag() bool { return l.tagValid }

// Eviction describes what Allocate displaced.
type Eviction struct {
	// LineAddr is the address of the first byte of the displaced line; only
	// meaningful when HadTag.
	LineAddr memory.Addr
	// HadTag is true when a real line (valid or invalidated) was displaced.
	HadTag bool
	// State is the displaced line's coherence state; Modified means the
	// caller owes a writeback bus operation.
	State State
	// PrefetchedUnused is true when the displaced line had been prefetched
	// and never demand-used — a wasted prefetch whose eventual demand miss
	// must be classified "prefetched".
	PrefetchedUnused bool
}

// Cache is a set-associative cache with LRU replacement. Assoc 1 gives the
// paper's direct-mapped cache; Geometry.Assoc 0 gives a fully-associative
// cache (used by the PWS filter).
type Cache struct {
	geom  memory.Geometry
	ways  int
	sets  int
	lines []Line // sets*ways entries, set-major
	clock uint64

	// lineShift and setMask are the geometry's index arithmetic resolved
	// once at construction (LineSize and Sets are validated powers of two).
	// The per-reference lookup path must not re-derive them: Geometry's
	// methods divide by non-constant field values, which the profiler showed
	// dominating Lookup before these were cached.
	lineShift uint
	setMask   uint64

	// tags, when non-nil, is the duplicate-tag array this cache belongs to
	// (Tags.NewCache); tagOff is the offset of this cache's ways within
	// each of its rows.
	tags   *Tags
	tagOff int
}

// New builds an empty cache with the given geometry. It panics on an invalid
// geometry: geometry is static configuration fixed at process start, so an
// error return would only be rethrown by every caller.
func New(geom memory.Geometry) *Cache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		geom:      geom,
		ways:      geom.Ways(),
		sets:      geom.Sets(),
		lineShift: uint(bits.TrailingZeros64(uint64(geom.LineSize))),
		setMask:   uint64(geom.Sets() - 1),
	}
	c.lines = make([]Line, c.sets*c.ways)
	for i := range c.lines {
		c.lines[i].InvalidatingWord = NoInvalidatingWord
	}
	return c
}

// Geometry returns the cache's geometry.
func (c *Cache) Geometry() memory.Geometry { return c.geom }

// Lookup returns the line whose tag matches a (valid or invalidated), or nil.
// It does not update recency.
func (c *Cache) Lookup(a memory.Addr) *Line {
	tag := uint64(a) >> c.lineShift
	si := int(tag&c.setMask) * c.ways
	set := c.lines[si : si+c.ways]
	for i := range set {
		if set[i].tagValid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Probe looks a up and reports whether it hits (tag match with valid state).
// The returned line is non-nil whenever the tag matches, even if invalid, so
// the caller can classify an invalidation miss. Probe refreshes recency on a
// hit.
func (c *Cache) Probe(a memory.Addr) (line *Line, hit bool) {
	line = c.Lookup(a)
	if line != nil && line.State.Valid() {
		c.clock++
		line.lru = c.clock
		return line, true
	}
	return line, false
}

// Allocate installs a line for address a, displacing the set's invalid or
// least-recently-used entry, and returns the fresh line plus a description of
// what was displaced. The caller sets the new line's State. If a's tag is
// already present in the set (for example an invalidated line being
// re-fetched), that entry is reused and Eviction.HadTag is false.
func (c *Cache) Allocate(a memory.Addr) (*Line, Eviction) {
	tag := uint64(a) >> c.lineShift
	si := int(tag & c.setMask)
	set := c.lines[si*c.ways : (si+1)*c.ways]
	victim := -1
	for i := range set {
		if set[i].tagValid && set[i].Tag == tag {
			victim = i
			break
		}
	}
	var ev Eviction
	if victim < 0 {
		// Prefer an untagged entry, then an invalidated one, then LRU.
		for i := range set {
			if !set[i].tagValid {
				victim = i
				break
			}
		}
		if victim < 0 {
			for i := range set {
				if victim < 0 {
					victim = i
					continue
				}
				vi, vb := !set[i].State.Valid(), !set[victim].State.Valid()
				switch {
				case vi != vb:
					if vi {
						victim = i
					}
				case set[i].lru < set[victim].lru:
					victim = i
				}
			}
		}
		if set[victim].tagValid {
			ev = Eviction{
				LineAddr:         memory.Addr(set[victim].Tag) * memory.Addr(c.geom.LineSize),
				HadTag:           true,
				State:            set[victim].State,
				PrefetchedUnused: set[victim].PrefetchedUnused,
			}
		}
	}
	l := &set[victim]
	c.clock++
	*l = Line{Tag: tag, tagValid: true, lru: c.clock, InvalidatingWord: NoInvalidatingWord}
	if c.tags != nil {
		c.tags.slots[si*c.tags.rowLen+c.tagOff+victim] = tag + 1
	}
	return l, ev
}

// SnoopTable applies a coherence-protocol transition to the line containing
// a, if this cache holds it valid, and returns the line's prior state
// (Invalid when it did not hold the line). next[s] is the post-snoop state of
// a copy held in state s; internal/coherence supplies the transitions per
// protocol and bus operation, flattened into a dense table so the kernel's
// per-copy snoop is an index, not an indirect call. When the transition
// invalidates the line, the tag and word-access history are kept and word is
// recorded as the invalidating word for false-sharing classification (pass
// NoInvalidatingWord when no specific word applies).
func (c *Cache) SnoopTable(a memory.Addr, word int, next *[NumStates]State) State {
	l := c.Lookup(a)
	if l == nil || !l.State.Valid() {
		return Invalid
	}
	prior := l.State
	l.State = next[prior]
	if l.State == Invalid {
		if word >= 0 && word < 64 {
			l.InvalidatingWord = int8(word)
		} else {
			l.InvalidatingWord = NoInvalidatingWord
		}
	}
	return prior
}

// SnoopInvalidate handles a remote write (or read-for-ownership or exclusive
// prefetch) under a write-invalidate protocol: if this cache holds the line
// containing a, it is invalidated in place — the tag is kept, word-access
// history is kept, and the invalidating word is recorded for false-sharing
// classification. It returns the line's prior state (Invalid if the cache
// did not hold it).
func (c *Cache) SnoopInvalidate(a memory.Addr, word int) State {
	return c.SnoopTable(a, word, &invalidateAll)
}

// SnoopRead handles a remote read of the line containing a under a
// write-invalidate protocol. An owned line (Exclusive or Modified) is
// downgraded to Shared; in the Illinois protocol the holding cache also
// supplies the data. It returns the prior state.
func (c *Cache) SnoopRead(a memory.Addr) State {
	return c.SnoopTable(a, NoInvalidatingWord, &downgradeOwned)
}

// The write-invalidate transitions behind SnoopInvalidate and SnoopRead.
var (
	invalidateAll  = [NumStates]State{}
	downgradeOwned = [NumStates]State{Invalid, Shared, Shared, Shared, SharedMod}
)

// HoldsValid reports whether the cache currently holds a valid copy of the
// line containing a.
func (c *Cache) HoldsValid(a memory.Addr) bool {
	l := c.Lookup(a)
	return l != nil && l.State.Valid()
}

// StateOf returns the coherence state of the line containing a (Invalid when
// absent). Intended for tests and invariant checks.
func (c *Cache) StateOf(a memory.Addr) State {
	l := c.Lookup(a)
	if l == nil {
		return Invalid
	}
	return l.State
}

// ForEachValid calls fn for every valid line, passing its line address and
// state. Used by invariant checks and utilization reports.
func (c *Cache) ForEachValid(fn func(la memory.Addr, st State)) {
	for i := range c.lines {
		if c.lines[i].tagValid && c.lines[i].State.Valid() {
			fn(memory.Addr(c.lines[i].Tag)*memory.Addr(c.geom.LineSize), c.lines[i].State)
		}
	}
}

// ValidLines returns the number of valid lines currently held.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].tagValid && c.lines[i].State.Valid() {
			n++
		}
	}
	return n
}
