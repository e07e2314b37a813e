package cache

import (
	"math/rand"
	"testing"
	"unsafe"

	"busprefetch/internal/memory"
)

// TestLineIs32Bytes pins the field order that packs a Line into 32 bytes;
// the simulation kernel walks arrays of them on every reference.
func TestLineIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Line{}) = %d, want 32", got)
	}
}

// TestTagsMatchLookup drives groups of caches sharing a duplicate-tag array
// with random allocations (each given a valid state, as the simulator's
// fills are) and snoops, and after every step checks each row against the
// reference it copies: bit i of Holders(a) must be set exactly when cache
// i's HoldsValid(a) is true. An invalidating snoop must clear the
// slot; a snoop that leaves the copy valid must keep it.
func TestTagsMatchLookup(t *testing.T) {
	geometries := []memory.Geometry{
		{CacheSize: 4 * 32, LineSize: 32, Assoc: 1},  // direct-mapped, 4 sets
		{CacheSize: 16 * 32, LineSize: 32, Assoc: 4}, // 4-way, 4 sets
		{CacheSize: 8 * 32, LineSize: 32, Assoc: 0},  // fully associative
	}
	for _, geom := range geometries {
		for _, n := range []int{1, 9, 64} {
			rng := rand.New(rand.NewSource(int64(n)))
			tags := NewTags(geom, n)
			caches := make([]*Cache, n)
			for i := range caches {
				caches[i] = tags.NewCache(i)
			}
			// Three times the lines of one cache, so sets conflict.
			universe := 3 * geom.Lines()
			addr := func() memory.Addr {
				return memory.Addr(rng.Intn(universe)*geom.LineSize + rng.Intn(geom.LineSize))
			}
			for step := 0; step < 2000; step++ {
				c := caches[rng.Intn(n)]
				switch a := addr(); rng.Intn(4) {
				case 0, 1:
					l, _ := c.Allocate(a)
					l.State = State(1 + rng.Intn(int(NumStates)-1))
				case 2:
					c.SnoopInvalidate(a, rng.Intn(8))
				default:
					c.SnoopRead(a)
				}
				for line := 0; line < universe; line++ {
					a := memory.Addr(line * geom.LineSize)
					var want uint64
					for i, c := range caches {
						if c.HoldsValid(a) {
							want |= 1 << uint(i)
						}
					}
					if got := tags.Holders(a); got != want {
						t.Fatalf("%v, %d caches, step %d: Holders(%#x) = %#x, HoldsValid finds %#x",
							geom, n, step, uint64(a), got, want)
					}
				}
			}
		}
	}
}

// TestTagsRejectBadGroup: a holder set is a uint64, so a group has 1 to 64
// caches, and a member id must fall inside the group.
func TestTagsRejectBadGroup(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	geom := memory.DefaultGeometry()
	mustPanic("NewTags(geom, 0)", func() { NewTags(geom, 0) })
	mustPanic("NewTags(geom, 65)", func() { NewTags(geom, 65) })
	mustPanic("NewCache(4) of 4", func() { NewTags(geom, 4).NewCache(4) })
	mustPanic("NewTags(bad geometry)", func() { NewTags(memory.Geometry{CacheSize: 100, LineSize: 24, Assoc: 1}, 4) })
}
