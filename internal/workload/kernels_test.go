package workload

import (
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

// These tests pin the structural properties each kernel was designed around
// (DESIGN.md §6), so a refactor that silently changes a workload's sharing
// behaviour fails loudly.

func sharingOf(t *testing.T, name string, restructured bool) (*trace.Trace, *trace.SharingProfile) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := generate(w, Params{Scale: 0.05, Seed: 1, Restructured: restructured})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.AnalyzeSharingSource(trace.FromTrace(tr), memory.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return tr, prof
}

func TestTopoptConflictPairLayout(t *testing.T) {
	// The original layout's signature: for each processor, private table A
	// and table B entries map to the same cache set (the conflict-miss
	// source); the restructured layout separates them.
	g := memory.DefaultGeometry()
	check := func(restructured bool) (collisions, total int) {
		w := Topopt()
		tr, _, err := generate(w, Params{Scale: 0.02, Seed: 1, Restructured: restructured})
		if err != nil {
			t.Fatal(err)
		}
		// Identify table accesses by address range: they are the private
		// reads in the 0x1000_0000 region above the cells but below
		// scratch. Instead of parsing the layout, exploit the trace: the
		// colliding pair is two consecutive reads to addresses exactly one
		// cache size apart (original) — count consecutive read pairs that
		// share a set but not a line.
		for _, s := range tr.Streams {
			for i := 1; i < len(s); i++ {
				a, b := s[i-1], s[i]
				if a.Kind == trace.Read && b.Kind == trace.Read &&
					g.LineAddr(a.Addr) != g.LineAddr(b.Addr) &&
					g.SetIndex(a.Addr) == g.SetIndex(b.Addr) {
					collisions++
				}
				total++
			}
		}
		return collisions, total
	}
	orig, _ := check(false)
	restr, _ := check(true)
	if orig == 0 {
		t.Fatal("original topopt has no consecutive same-set read pairs (conflict source missing)")
	}
	if restr >= orig/2 {
		t.Errorf("restructured topopt still has %d same-set pairs (original %d)", restr, orig)
	}
}

func TestTopoptSharedDataStaysSmall(t *testing.T) {
	// The paper: Topopt is "still interesting because of the high degree of
	// write sharing and the large number of conflict misses it exhibits
	// even with the small shared data set size".
	w := Topopt()
	_, info, err := generate(w, Params{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.SharedData > 32*1024 {
		t.Errorf("topopt shared data %d bytes should be smaller than the 32KB cache", info.SharedData)
	}
}

func TestMp3dInterleavedOwnershipFalselyShares(t *testing.T) {
	// Particle records are 12 bytes with group-interleaved ownership, so
	// lines crossing group boundaries are written by two owners.
	tr, prof := sharingOf(t, "mp3d", false)
	_ = tr
	multiWriter := 0
	for _, la := range prof.WriteSharedLines() {
		u := prof.Use(la)
		n := 0
		for w := u.Writers; w != 0; w &= w - 1 {
			n++
		}
		if n >= 2 {
			multiWriter++
		}
	}
	if multiWriter < 100 {
		t.Errorf("mp3d has only %d multi-writer lines; the interleaved particle array should produce hundreds", multiWriter)
	}
}

func TestPverifyValuesWriteShared(t *testing.T) {
	_, prof := sharingOf(t, "pverify", false)
	_, _, ws := prof.Counts()
	if ws < 500 {
		t.Errorf("pverify write-shared lines = %d; the interleaved value array should dominate", ws)
	}
}

func TestPverifyRestructuredReducesMultiWriterLines(t *testing.T) {
	_, orig := sharingOf(t, "pverify", false)
	_, restr := sharingOf(t, "pverify", true)
	count := func(p *trace.SharingProfile) int {
		n := 0
		for _, la := range p.WriteSharedLines() {
			u := p.Use(la)
			writers := 0
			for w := u.Writers; w != 0; w &= w - 1 {
				writers++
			}
			if writers >= 2 {
				n++
			}
		}
		return n
	}
	o, r := count(orig), count(restr)
	if r >= o/2 {
		t.Errorf("restructuring left %d multi-writer lines of %d — blocking failed", r, o)
	}
}

func TestWaterMostlyReadSharing(t *testing.T) {
	// Water's molecule lines are read by everyone and written only by their
	// owner (plus the lock-guarded energy line): write-shared lines should
	// carry a single writer almost everywhere.
	_, prof := sharingOf(t, "water", false)
	single, multi := 0, 0
	for _, la := range prof.WriteSharedLines() {
		u := prof.Use(la)
		writers := 0
		for w := u.Writers; w != 0; w &= w - 1 {
			writers++
		}
		if writers == 1 {
			single++
		} else {
			multi++
		}
	}
	if single <= multi {
		t.Errorf("water: %d single-writer vs %d multi-writer shared lines; ownership should dominate", single, multi)
	}
}

func TestLocusChannelBandIsGloballyWritten(t *testing.T) {
	// The channel band (grid rows 0-1) must be written by many processors —
	// it is the uncoverable contended region.
	tr, _ := sharingOf(t, "locus", false)
	g := memory.DefaultGeometry()
	// Band rows are the first 2*1024 cells of the grid: find the grid base
	// as the smallest line address in the trace above the region base.
	const gridBase = 0x5000_0000
	bandEnd := memory.Addr(gridBase + 2*1024*4)
	writers := uint64(0)
	for proc, s := range tr.Streams {
		for _, e := range s {
			if e.Kind == trace.Write && e.Addr >= gridBase && e.Addr < bandEnd {
				writers |= 1 << uint(proc)
			}
		}
	}
	n := 0
	for w := writers; w != 0; w &= w - 1 {
		n++
	}
	if n < tr.Procs()/2 {
		t.Errorf("channel band written by only %d of %d processors", n, tr.Procs())
	}
	_ = g
}

func TestKernelGapsAreModest(t *testing.T) {
	// The CPU model charges one cycle per instruction; kernels encode
	// compute as gaps. Sanity-bound them so a typo (gap 50000) cannot
	// silently distort calibration.
	for _, w := range All() {
		tr, _, err := generate(w, Params{Scale: 0.02, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tr.Streams {
			for _, e := range s {
				if e.Gap > 100 {
					t.Fatalf("%s: event gap %d is implausibly large", w.Name, e.Gap)
				}
			}
		}
	}
}

func TestWorkloadRefsNearTarget(t *testing.T) {
	// At scale 1 every workload should produce roughly 10^5 demand refs per
	// process (the calibrated trace length).
	for _, w := range All() {
		tr, _, err := generate(w, Params{Scale: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		per := tr.DemandRefs() / tr.Procs()
		if per < 70_000 || per > 150_000 {
			t.Errorf("%s: %d refs/proc outside the calibrated band", w.Name, per)
		}
	}
}
