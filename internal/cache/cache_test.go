package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"busprefetch/internal/memory"
)

func smallGeom() memory.Geometry {
	// 4 sets, direct mapped, 32-byte lines: easy to force conflicts.
	return memory.Geometry{CacheSize: 4 * 32, LineSize: 32, Assoc: 1}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	if Invalid.Valid() || !Shared.Valid() || !Exclusive.Valid() || !Modified.Valid() {
		t.Error("Valid() predicate wrong")
	}
}

func TestProbeMissOnEmpty(t *testing.T) {
	c := New(smallGeom())
	line, hit := c.Probe(0x100)
	if hit || line != nil {
		t.Errorf("empty cache hit: line=%v hit=%v", line, hit)
	}
}

func TestAllocateAndHit(t *testing.T) {
	c := New(smallGeom())
	l, ev := c.Allocate(0x100)
	if ev.HadTag {
		t.Error("first allocation displaced something")
	}
	l.State = Exclusive
	got, hit := c.Probe(0x100 + 12) // any word of the line
	if !hit || got != l {
		t.Error("line not found after allocate")
	}
}

func TestAllocateEvictsAndReportsWriteback(t *testing.T) {
	g := smallGeom()
	c := New(g)
	l, _ := c.Allocate(0)
	l.State = Modified
	// Same set: addresses 4 lines apart.
	conflicting := memory.Addr(4 * 32)
	l2, ev := c.Allocate(conflicting)
	if !ev.HadTag || ev.State != Modified || ev.LineAddr != 0 {
		t.Errorf("eviction = %+v, want dirty line 0", ev)
	}
	l2.State = Exclusive
	if c.HoldsValid(0) {
		t.Error("evicted line still present")
	}
}

func TestAllocateReusesMatchingTag(t *testing.T) {
	c := New(smallGeom())
	l, _ := c.Allocate(0x40)
	l.State = Shared
	l.WordsAccessed = 0xF
	// Re-allocating the same line (e.g. refetch after invalidation) must not
	// report an eviction.
	l2, ev := c.Allocate(0x40)
	if ev.HadTag {
		t.Errorf("re-allocation reported eviction %+v", ev)
	}
	if l2.WordsAccessed != 0 {
		t.Error("re-allocation did not reset metadata")
	}
}

func TestSnoopInvalidateKeepsTagAndRecordsWord(t *testing.T) {
	c := New(smallGeom())
	l, _ := c.Allocate(0x40)
	l.State = Modified
	prior := c.SnoopInvalidate(0x40, 5)
	if prior != Modified {
		t.Errorf("prior state %v, want M", prior)
	}
	got := c.Lookup(0x40)
	if got == nil || got.State != Invalid {
		t.Fatal("line lost or still valid after invalidation")
	}
	if !got.HasTag() {
		t.Error("invalidation dropped the tag (invalidation misses undetectable)")
	}
	if got.InvalidatingWord != 5 {
		t.Errorf("InvalidatingWord = %d, want 5", got.InvalidatingWord)
	}
	if _, hit := c.Probe(0x40); hit {
		t.Error("invalidated line still hits")
	}
}

func TestSnoopInvalidateMissingLine(t *testing.T) {
	c := New(smallGeom())
	if prior := c.SnoopInvalidate(0x40, 0); prior != Invalid {
		t.Errorf("snoop of absent line returned %v", prior)
	}
}

func TestSnoopReadDowngrades(t *testing.T) {
	c := New(smallGeom())
	for _, st := range []State{Exclusive, Modified} {
		l, _ := c.Allocate(0x40)
		l.State = st
		if prior := c.SnoopRead(0x40); prior != st {
			t.Errorf("prior = %v, want %v", prior, st)
		}
		if got := c.StateOf(0x40); got != Shared {
			t.Errorf("state after remote read = %v, want S", got)
		}
	}
	// Shared stays shared.
	l, _ := c.Allocate(0x60)
	l.State = Shared
	c.SnoopRead(0x60)
	if got := c.StateOf(0x60); got != Shared {
		t.Errorf("shared line became %v", got)
	}
}

func TestEvictionReportsPrefetchedUnused(t *testing.T) {
	c := New(smallGeom())
	l, _ := c.Allocate(0)
	l.State = Exclusive
	l.PrefetchedUnused = true
	_, ev := c.Allocate(4 * 32)
	if !ev.PrefetchedUnused {
		t.Error("eviction lost the prefetched-unused flag")
	}
	// Even an invalidated prefetched line reports the flag, so wasted
	// prefetches can still be classified after displacement.
	l2, _ := c.Allocate(2 * 32) // set 2
	l2.State = Shared
	l2.PrefetchedUnused = true
	c.SnoopInvalidate(2*32, 0)
	_, ev2 := c.Allocate(6 * 32) // same set
	if !ev2.HadTag || !ev2.PrefetchedUnused {
		t.Errorf("invalidated prefetched line eviction = %+v", ev2)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way cache with 2 sets.
	g := memory.Geometry{CacheSize: 4 * 32, LineSize: 32, Assoc: 2}
	c := New(g)
	a, b, d := memory.Addr(0), memory.Addr(2*32), memory.Addr(4*32) // all set 0
	l, _ := c.Allocate(a)
	l.State = Exclusive
	l, _ = c.Allocate(b)
	l.State = Exclusive
	c.Probe(a) // a is now more recent than b
	l, ev := c.Allocate(d)
	l.State = Exclusive
	if !ev.HadTag || ev.LineAddr != b {
		t.Errorf("LRU eviction chose %#x, want b=%#x", uint64(ev.LineAddr), uint64(b))
	}
	if !c.HoldsValid(a) || !c.HoldsValid(d) {
		t.Error("wrong lines resident")
	}
}

func TestAllocatePrefersInvalidVictim(t *testing.T) {
	g := memory.Geometry{CacheSize: 4 * 32, LineSize: 32, Assoc: 2}
	c := New(g)
	a, b, d := memory.Addr(0), memory.Addr(2*32), memory.Addr(4*32)
	l, _ := c.Allocate(a)
	l.State = Exclusive
	l, _ = c.Allocate(b)
	l.State = Exclusive
	c.SnoopInvalidate(a, 0)
	c.Probe(b)
	_, ev := c.Allocate(d)
	if ev.LineAddr != a {
		t.Errorf("victim %#x, want the invalidated line %#x", uint64(ev.LineAddr), uint64(a))
	}
}

func TestFullyAssociative(t *testing.T) {
	g := memory.Geometry{CacheSize: 16 * 32, LineSize: 32, Assoc: 0}
	c := New(g)
	for i := 0; i < 16; i++ {
		l, ev := c.Allocate(memory.Addr(i * 32))
		l.State = Exclusive
		if ev.HadTag {
			t.Fatalf("eviction before capacity at line %d", i)
		}
	}
	// 17th line evicts the LRU (line 0).
	l, ev := c.Allocate(16 * 32)
	l.State = Exclusive
	if !ev.HadTag || ev.LineAddr != 0 {
		t.Errorf("eviction = %+v, want line 0", ev)
	}
}

func TestValidLinesAndForEach(t *testing.T) {
	c := New(smallGeom())
	l, _ := c.Allocate(0)
	l.State = Shared
	l, _ = c.Allocate(32)
	l.State = Modified
	c.SnoopInvalidate(0, 1)
	if got := c.ValidLines(); got != 1 {
		t.Errorf("ValidLines = %d, want 1", got)
	}
	n := 0
	c.ForEachValid(func(la memory.Addr, st State) {
		n++
		if la != 32 || st != Modified {
			t.Errorf("ForEachValid visited %#x %v", uint64(la), st)
		}
	})
	if n != 1 {
		t.Errorf("ForEachValid visited %d lines", n)
	}
}

// TestCacheMatchesReferenceModel drives the cache with random operations and
// compares hit/miss outcomes against a trivial map-based model.
func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := smallGeom()
		c := New(g)
		type refLine struct {
			addr memory.Addr
			used uint64
		}
		ref := map[int]*refLine{} // set -> resident line (direct mapped)
		clock := uint64(0)
		for op := 0; op < 500; op++ {
			a := memory.Addr(r.Intn(64) * 32)
			set := g.SetIndex(a)
			la := g.LineAddr(a)
			clock++
			_, hit := c.Probe(a)
			refHit := ref[set] != nil && ref[set].addr == la
			if hit != refHit {
				return false
			}
			if !hit {
				l, _ := c.Allocate(a)
				l.State = Exclusive
				ref[set] = &refLine{addr: la, used: clock}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestProbeMatchesLookup checks Probe, which indexes a set's lines itself,
// against Lookup's scan of the set slice on every geometry shape: a probe
// returns the line Lookup finds, and hits exactly when that line is valid.
func TestProbeMatchesLookup(t *testing.T) {
	for _, g := range []memory.Geometry{
		{CacheSize: 4 * 32, LineSize: 32, Assoc: 1},  // direct-mapped, 4 sets
		{CacheSize: 8 * 32, LineSize: 32, Assoc: 2},  // 2-way, 4 sets
		{CacheSize: 16 * 32, LineSize: 32, Assoc: 4}, // 4-way, 4 sets
		{CacheSize: 8 * 32, LineSize: 32, Assoc: 0},  // fully associative
	} {
		r := rand.New(rand.NewSource(1))
		c := New(g)
		for op := 0; op < 2000; op++ {
			a := memory.Addr(r.Intn(40)*32 + 4*r.Intn(8))
			switch r.Intn(3) {
			case 0:
				l, _ := c.Allocate(a)
				l.State = State(1 + r.Intn(int(NumStates)-1))
			case 1:
				c.SnoopInvalidate(a, 0)
			default:
				want := c.Lookup(a)
				line, hit := c.Probe(a)
				if line != want || hit != (want != nil && want.State.Valid()) {
					t.Fatalf("%+v op %d: Probe(%#x) = %p, %t; Lookup finds %p", g, op, uint64(a), line, hit, want)
				}
			}
		}
	}
}
