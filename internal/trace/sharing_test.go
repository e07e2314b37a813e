package trace

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"busprefetch/internal/memory"
)

// TestSharingProfileMatchesMap checks the open-addressed sharing table
// against a plain map built here, over random traces whose addresses
// spread over the whole 64-bit space. Each trace touches thousands of
// lines, so the table doubles several times while it is built.
func TestSharingProfileMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		lineSize, procs, events int
		seed                    int64
	}{
		{32, 16, 3000, 1},
		{4, 64, 400, 2},
		{128, 3, 20000, 3},
		{32, 1, 5000, 4},
	} {
		geom := memory.Geometry{CacheSize: 64 * tc.lineSize, LineSize: tc.lineSize, Assoc: 1}
		rng := rand.New(rand.NewSource(tc.seed))
		tr := randomSharingTrace(rng, tc.procs, tc.events)

		type use struct{ readers, writers uint64 }
		ref := map[uint64]use{} // line number -> the processors that read and write it
		var reads, writes, prefetches, locks int
		for p, s := range tr.Streams {
			for _, e := range s {
				u := ref[uint64(e.Addr)/uint64(tc.lineSize)]
				switch e.Kind {
				case Read:
					reads++
					u.readers |= 1 << p
				case Write, Lock, Unlock:
					switch e.Kind {
					case Write:
						writes++
					case Lock:
						locks++
					}
					u.readers |= 1 << p
					u.writers |= 1 << p
				default:
					if e.Kind.IsPrefetch() {
						prefetches++
					}
					continue
				}
				ref[uint64(e.Addr)/uint64(tc.lineSize)] = u
			}
		}
		sharers := func(u use) int { return bits.OnesCount64(u.readers | u.writers) }
		writeShared := func(u use) bool { return u.writers != 0 && sharers(u) >= 2 }
		var private, readShared, wsCount int
		var wsLines []memory.Addr
		for line, u := range ref {
			switch {
			case writeShared(u):
				wsCount++
				wsLines = append(wsLines, memory.Addr(line*uint64(tc.lineSize)))
			case u.writers == 0 && sharers(u) >= 2:
				readShared++
			default:
				private++
			}
		}
		sort.Slice(wsLines, func(i, j int) bool { return wsLines[i] < wsLines[j] })

		p, err := AnalyzeSharingSource(FromTrace(tr), geom)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.TotalLines(); got != len(ref) {
			t.Errorf("seed %d: TotalLines = %d, want %d", tc.seed, got, len(ref))
		}
		if gp, gr, gw := p.Counts(); gp != private || gr != readShared || gw != wsCount {
			t.Errorf("seed %d: Counts = %d,%d,%d; want %d,%d,%d", tc.seed, gp, gr, gw, private, readShared, wsCount)
		}
		if got := p.WriteSharedLines(); !reflect.DeepEqual(got, wsLines) {
			t.Errorf("seed %d: WriteSharedLines has %d lines, want %d", tc.seed, len(got), len(wsLines))
		}
		// Every byte of a touched line answers for the line; untouched
		// addresses answer with the zero LineUse.
		probe := func(a memory.Addr) {
			u := ref[uint64(a)/uint64(tc.lineSize)]
			want := LineUse{Readers: u.readers, Writers: u.writers}
			if got := p.Use(a); got != want {
				t.Fatalf("seed %d: Use(%#x) = %+v, want %+v", tc.seed, uint64(a), got, want)
			}
			if got := p.WriteShared(a); got != writeShared(u) {
				t.Fatalf("seed %d: WriteShared(%#x) = %v, want %v", tc.seed, uint64(a), got, writeShared(u))
			}
		}
		for _, s := range tr.Streams {
			for _, e := range s {
				probe(e.Addr)
				probe(e.Addr ^ memory.Addr(tc.lineSize-1))
			}
		}
		for i := 0; i < 10000; i++ {
			probe(memory.Addr(rng.Uint64()))
		}

		st := SummarizeSource(FromTrace(tr), geom)
		var shared int
		for _, u := range ref {
			if sharers(u) >= 2 {
				shared++
			}
		}
		want := Stats{Procs: tc.procs, Events: tr.Events(), DemandRefs: reads + writes, Reads: reads,
			Writes: writes, Prefetches: prefetches, Locks: locks, TouchedData: len(ref) * tc.lineSize,
			SharedData: shared * tc.lineSize, WriteShared: wsCount * tc.lineSize}
		if st != want {
			t.Errorf("seed %d: SummarizeSource = %+v, want %+v", tc.seed, st, want)
		}
	}
}

// randomSharingTrace returns procs streams of n events each. Half the
// references go to a pool of lines every processor draws from, so lines are
// private, read-shared and write-shared alike; the rest go anywhere in the
// 64-bit space, the top and bottom line included.
func randomSharingTrace(rng *rand.Rand, procs, n int) *Trace {
	pool := make([]memory.Addr, 4*n/procs+8)
	for i := range pool {
		pool[i] = memory.Addr(rng.Uint64())
	}
	pool[0], pool[1] = 0, ^memory.Addr(0)
	kinds := []Kind{Read, Read, Read, Write, Prefetch, PrefetchExcl, Lock, Unlock}
	tr := &Trace{Name: "random", Streams: make([]Stream, procs)}
	for p := range tr.Streams {
		for i := 0; i < n; i++ {
			a := memory.Addr(rng.Uint64())
			if rng.Intn(2) == 0 {
				a = pool[rng.Intn(len(pool))] + memory.Addr(rng.Intn(4))
			}
			tr.Streams[p] = append(tr.Streams[p], Event{Kind: kinds[rng.Intn(len(kinds))], Addr: a})
		}
	}
	return tr
}
