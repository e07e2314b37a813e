package filter

import (
	"math/rand"
	"testing"

	"busprefetch/internal/cache"
	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

func TestCacheFilterBasics(t *testing.T) {
	g := memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
	f := NewCache(g)
	if !f.Access(0) {
		t.Error("first access must miss")
	}
	if f.Access(16) {
		t.Error("same line must hit")
	}
	if !f.Access(2 * 32) { // same set, conflicting line
		t.Error("conflicting line must miss")
	}
}

func TestCacheFilterConflictEviction(t *testing.T) {
	g := memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
	f := NewCache(g)
	f.Access(0)
	f.Access(2 * 32) // evicts line 0 (same set, direct mapped)
	if f.Holds(0) {
		t.Error("line 0 should have been evicted")
	}
	if !f.Access(0) {
		t.Error("re-access of evicted line must miss")
	}
}

func TestMarkMisses(t *testing.T) {
	g := memory.DefaultGeometry()
	s := trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},     // miss
		{Kind: trace.Read, Addr: 0x1004},     // hit (same line)
		{Kind: trace.Write, Addr: 0x2000},    // miss
		{Kind: trace.Prefetch, Addr: 0x3000}, // not a demand access: unmarked
		{Kind: trace.Read, Addr: 0x1008},     // hit
		{Kind: trace.Barrier, Addr: 0},       // unmarked
	}
	miss := MarkMisses(s, g)
	want := []bool{true, false, true, false, false, false}
	for i := range want {
		if miss[i] != want[i] {
			t.Errorf("event %d: miss=%v, want %v", i, miss[i], want[i])
		}
	}
}

func TestMarkMissesLockLinesNeverMarked(t *testing.T) {
	g := memory.DefaultGeometry()
	s := trace.Stream{
		{Kind: trace.Lock, Addr: 0x5000},
		{Kind: trace.Unlock, Addr: 0x5000},
		{Kind: trace.Read, Addr: 0x5004}, // same line as the lock: now resident
	}
	miss := MarkMisses(s, g)
	if miss[0] || miss[1] {
		t.Error("lock operations must never be prefetch candidates")
	}
	if miss[2] {
		t.Error("lock access should have installed the line in the filter")
	}
}

func TestPWSGeometry(t *testing.T) {
	g := PWSGeometry(32)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Lines() != 16 || g.Sets() != 1 {
		t.Errorf("PWS filter is %d lines in %d sets, want 16 fully associative", g.Lines(), g.Sets())
	}
}

func TestMarkWriteSharedMisses(t *testing.T) {
	g := memory.DefaultGeometry()
	ws := map[memory.Addr]bool{0x1000: true}
	isWS := func(a memory.Addr) bool { return ws[g.LineAddr(a)] }
	s := trace.Stream{
		{Kind: trace.Read, Addr: 0x1000}, // WS, first touch: miss -> candidate
		{Kind: trace.Read, Addr: 0x2000}, // not WS: ignored
		{Kind: trace.Read, Addr: 0x1004}, // WS, filter hit: not a candidate
	}
	miss := MarkWriteSharedMisses(s, g, isWS)
	if !miss[0] || miss[1] || miss[2] {
		t.Errorf("marks = %v, want [true false false]", miss)
	}
}

// TestTemporalLocalityWindow verifies the 16-line filter's core behaviour:
// re-touching a line within 16 distinct lines hits, beyond 16 misses — the
// paper's first-order approximation of temporal locality.
func TestTemporalLocalityWindow(t *testing.T) {
	g := memory.DefaultGeometry()
	all := func(memory.Addr) bool { return true }

	near := trace.Stream{{Kind: trace.Read, Addr: 0}}
	for i := 1; i <= 15; i++ {
		near = append(near, trace.Event{Kind: trace.Read, Addr: memory.Addr(i * 32)})
	}
	near = append(near, trace.Event{Kind: trace.Read, Addr: 0}) // within window
	miss := MarkWriteSharedMisses(near, g, all)
	if miss[len(miss)-1] {
		t.Error("line re-touched within 16 lines must hit the PWS filter")
	}

	far := trace.Stream{{Kind: trace.Read, Addr: 0}}
	for i := 1; i <= 16; i++ {
		far = append(far, trace.Event{Kind: trace.Read, Addr: memory.Addr(i * 32)})
	}
	far = append(far, trace.Event{Kind: trace.Read, Addr: 0}) // evicted
	miss = MarkWriteSharedMisses(far, g, all)
	if !miss[len(miss)-1] {
		t.Error("line re-touched after 16 distinct lines must miss the PWS filter")
	}
}

// TestDirectProbeMatchesModel runs random addresses through a
// direct-mapped filter's Direct probe and through a model that keeps each
// set's line number: the misses must agree, and the probe must fill the
// filter it came from. An associative filter has no probe.
func TestDirectProbeMatchesModel(t *testing.T) {
	const sets, lineSize = 16, 32
	f := NewCache(memory.Geometry{CacheSize: sets * lineSize, LineSize: lineSize, Assoc: 1})
	d, ok := f.Direct()
	if !ok {
		t.Fatal("direct-mapped filter reports no probe")
	}
	held := make([]int, sets) // line number + 1 held by each set, 0 = empty
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a := memory.Addr(rng.Intn(4 * sets * lineSize))
		line := int(a) / lineSize
		want := held[line%sets] != line+1
		held[line%sets] = line + 1
		if got := d.Access(a); got != want {
			t.Fatalf("access %d (%#x): miss=%v, model says %v", i, uint64(a), got, want)
		}
		if !f.Holds(a) {
			t.Fatalf("access %d: the probe did not fill its filter", i)
		}
	}
	if _, ok := NewCache(memory.Geometry{CacheSize: sets * lineSize, LineSize: lineSize, Assoc: 2}).Direct(); ok {
		t.Error("2-way filter reports a direct-mapped probe")
	}
}

// TestAssocFilterMatchesCacheModel runs random addresses through the
// 16-line PWS filter and a 4-way filter, each beside a cache.Cache of the
// same geometry as its model: a Probe hit is a hit, anything else misses
// and Allocates. The filter must miss exactly where the model does. The
// addresses span four times each cache, so sets fill, hit and evict, and
// the choice of victim decides later misses.
func TestAssocFilterMatchesCacheModel(t *testing.T) {
	const lineSize = 32
	for _, geom := range []memory.Geometry{
		PWSGeometry(lineSize),
		{CacheSize: 16 * 4 * lineSize, LineSize: lineSize, Assoc: 4},
	} {
		f := NewCache(geom)
		model := cache.New(geom)
		rng := rand.New(rand.NewSource(1))
		misses := 0
		const accesses = 20000
		for i := 0; i < accesses; i++ {
			a := memory.Addr(rng.Intn(4 * geom.CacheSize))
			_, hit := model.Probe(a)
			if !hit {
				l, _ := model.Allocate(a)
				l.State = cache.Shared
				misses++
			}
			if got := f.Access(a); got == hit {
				t.Fatalf("%d-way, %d sets: access %d (%#x): miss=%v, model says %v",
					geom.Ways(), geom.Sets(), i, uint64(a), got, !hit)
			}
		}
		if misses == 0 || misses == accesses {
			t.Errorf("%d-way: %d misses in %d accesses, want both hits and misses", geom.Ways(), misses, accesses)
		}
	}
}

// TestDirectMappedFilterAllocatesNoStamps: recency stamps are read only
// with more than one way per set, so a direct-mapped filter allocates its
// struct and its tags and nothing else.
func TestDirectMappedFilterAllocatesNoStamps(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { NewCache(memory.DefaultGeometry()) }); n != 2 {
		t.Errorf("NewCache(direct mapped) made %v allocations, want 2", n)
	}
	if n := testing.AllocsPerRun(10, func() { NewCache(PWSGeometry(32)) }); n != 3 {
		t.Errorf("NewCache(fully associative) made %v allocations, want 3", n)
	}
}
