package prefetch

import (
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

func geom() memory.Geometry { return memory.DefaultGeometry() }

// annotate runs the shipping annotator over a hand-built trace and
// materializes its output.
func annotate(tr *trace.Trace, opt Options) (*trace.Trace, error) {
	src, err := AnnotateSource(trace.FromTrace(tr), opt, nil)
	if err != nil {
		return nil, err
	}
	return trace.Materialize(src)
}

func TestNPIsIdentity(t *testing.T) {
	tr := &trace.Trace{Streams: []trace.Stream{{{Kind: trace.Read, Addr: 0x1000}}}}
	out, err := annotate(tr, Options{Strategy: NP, Geometry: geom()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Events() != 1 || out.Streams[0][0] != tr.Streams[0][0] {
		t.Error("NP changed the trace")
	}
	out.Streams[0][0].Addr = 99
	if tr.Streams[0][0].Addr == 99 {
		t.Error("NP returned shared storage")
	}
}

func TestPREFInsertsBeforePredictedMisses(t *testing.T) {
	// A long run of hits, then a miss on a new line: the prefetch should be
	// inserted ~100 estimated cycles before that miss.
	var s trace.Stream
	for i := 0; i < 60; i++ {
		s = append(s, trace.Event{Kind: trace.Read, Addr: memory.Addr(0x1000 + (i%8)*4), Gap: 4})
	}
	s = append(s, trace.Event{Kind: trace.Read, Addr: 0x9000, Gap: 4})
	tr := &trace.Trace{Streams: []trace.Stream{s}}
	out, err := annotate(tr, Options{Strategy: PREF, Geometry: geom()})
	if err != nil {
		t.Fatal(err)
	}
	// Two predicted misses: the first access (cold) and 0x9000.
	var prefs []int
	for i, e := range out.Streams[0] {
		if e.Kind.IsPrefetch() {
			prefs = append(prefs, i)
		}
	}
	if len(prefs) != 2 {
		t.Fatalf("inserted %d prefetches, want 2", len(prefs))
	}
	// The prefetch for 0x9000 must target it and precede it by roughly the
	// default distance in estimated cycles (each original event is 5
	// estimated cycles, so ~20 events).
	target := -1
	for i, e := range out.Streams[0] {
		if e.Kind == trace.Read && e.Addr == 0x9000 {
			target = i
		}
	}
	pf := prefs[1]
	if out.Streams[0][pf].Addr != 0x9000 {
		t.Fatalf("second prefetch targets %#x", uint64(out.Streams[0][pf].Addr))
	}
	gapEvents := target - pf
	if gapEvents < 18 || gapEvents > 24 {
		t.Errorf("prefetch placed %d events ahead, want ~20 (100 cycles / 5 cycles-per-event)", gapEvents)
	}
}

func TestEstimatedDistanceRespected(t *testing.T) {
	// Verify the estimated-cycle distance between prefetch and access is
	// >= the requested distance (or the prefetch is at stream start).
	var s trace.Stream
	for i := 0; i < 400; i++ {
		s = append(s, trace.Event{Kind: trace.Read, Addr: memory.Addr(0x1000 + i*64), Gap: 2})
	}
	tr := &trace.Trace{Streams: []trace.Stream{s}}
	for _, dist := range []int{50, 100, 400} {
		out, err := annotate(tr, Options{Strategy: PREF, Geometry: geom(), Distance: dist})
		if err != nil {
			t.Fatal(err)
		}
		// Build estimated start times on the ORIGINAL timeline: placement
		// ran before insertion, so inserted prefetch instructions do not
		// count toward the distance guarantee.
		starts := make([]uint64, len(out.Streams[0])+1)
		var clock uint64
		for i, e := range out.Streams[0] {
			starts[i] = clock + uint64(e.Gap)
			if !e.Kind.IsPrefetch() {
				clock += uint64(e.Gap) + 1
			}
		}
		// A prefetch may be closer than dist only when it sits in the head
		// cluster: placed before any original event because the stream's
		// beginning was nearer than the distance.
		atStart := make([]bool, len(out.Streams[0]))
		seenOriginal := false
		for i, e := range out.Streams[0] {
			atStart[i] = !seenOriginal
			if !e.Kind.IsPrefetch() {
				seenOriginal = true
			}
		}
		lastUse := map[memory.Addr]int{}
		for i := len(out.Streams[0]) - 1; i >= 0; i-- {
			e := out.Streams[0][i]
			if e.Kind.IsDemand() {
				lastUse[e.Addr] = i
			}
			if e.Kind.IsPrefetch() {
				use, ok := lastUse[e.Addr]
				if !ok {
					t.Fatalf("prefetch at %d has no later use", i)
				}
				if !atStart[i] && starts[use]-starts[i] < uint64(dist) {
					t.Errorf("dist %d: prefetch %d only %d estimated cycles ahead of use %d",
						dist, i, starts[use]-starts[i], use)
				}
			}
		}
	}
}

func TestEXCLMarksOnlyPredictedWriteMisses(t *testing.T) {
	s := trace.Stream{
		{Kind: trace.Read, Addr: 0x1000, Gap: 200},  // predicted read miss
		{Kind: trace.Write, Addr: 0x2000, Gap: 200}, // predicted write miss
		{Kind: trace.Write, Addr: 0x2004, Gap: 200}, // hit (same line)
	}
	tr := &trace.Trace{Streams: []trace.Stream{s}}
	out, err := annotate(tr, Options{Strategy: EXCL, Geometry: geom()})
	if err != nil {
		t.Fatal(err)
	}
	var shared, excl int
	for _, e := range out.Streams[0] {
		switch e.Kind {
		case trace.Prefetch:
			shared++
		case trace.PrefetchExcl:
			excl++
			if e.Addr != 0x2000 {
				t.Errorf("exclusive prefetch targets %#x, want the write miss", uint64(e.Addr))
			}
		}
	}
	if shared != 1 || excl != 1 {
		t.Errorf("shared=%d excl=%d, want 1 and 1", shared, excl)
	}
}

func TestPREFNeverUsesExclusive(t *testing.T) {
	s := trace.Stream{{Kind: trace.Write, Addr: 0x2000, Gap: 200}}
	tr := &trace.Trace{Streams: []trace.Stream{s}}
	out, err := annotate(tr, Options{Strategy: PREF, Geometry: geom()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out.Streams[0] {
		if e.Kind == trace.PrefetchExcl {
			t.Error("PREF inserted an exclusive prefetch")
		}
	}
}

func TestLPDUsesLongDistance(t *testing.T) {
	if (Options{Strategy: LPD}).distance() != LongDistance {
		t.Error("LPD default distance wrong")
	}
	if (Options{Strategy: PREF}).distance() != DefaultDistance {
		t.Error("PREF default distance wrong")
	}
	if (Options{Strategy: PREF, Distance: 42}).distance() != 42 {
		t.Error("explicit distance ignored")
	}
}

func TestPWSAddsRedundantWriteSharedPrefetches(t *testing.T) {
	// Proc 0 repeatedly reads a write-shared line with poor temporal
	// locality (17 distinct lines between touches). PREF predicts only the
	// cold misses; PWS must add redundant prefetches for the later touches.
	mkStream := func() trace.Stream {
		var s trace.Stream
		for rep := 0; rep < 3; rep++ {
			s = append(s, trace.Event{Kind: trace.Read, Addr: 0x8000, Gap: 30})
			for i := 0; i < 17; i++ {
				// Filler lines in adjacent sets: no filter conflicts with
				// the shared line, only PWS-window pressure.
				s = append(s, trace.Event{Kind: trace.Read, Addr: memory.Addr(0x8000 + 32*(i+1)), Gap: 30})
			}
		}
		return s
	}
	// Proc 1 writes every line involved, so the whole working set is
	// write-shared and flows through the PWS temporal filter.
	var writer trace.Stream
	for i := 0; i <= 17; i++ {
		writer = append(writer, trace.Event{Kind: trace.Write, Addr: memory.Addr(0x8000 + 32*i), Gap: 5})
	}
	tr := &trace.Trace{Streams: []trace.Stream{mkStream(), writer}}
	pref, err := annotate(tr, Options{Strategy: PREF, Geometry: geom()})
	if err != nil {
		t.Fatal(err)
	}
	pws, err := annotate(tr, Options{Strategy: PWS, Geometry: geom()})
	if err != nil {
		t.Fatal(err)
	}
	count := func(tr *trace.Trace, addr memory.Addr) int {
		n := 0
		for _, e := range tr.Streams[0] {
			if e.Kind.IsPrefetch() && geom().LineAddr(e.Addr) == addr {
				n++
			}
		}
		return n
	}
	if got := count(pref, 0x8000); got != 1 {
		t.Errorf("PREF issued %d prefetches of the shared line, want 1 (cold only)", got)
	}
	if got := count(pws, 0x8000); got != 3 {
		t.Errorf("PWS issued %d prefetches of the shared line, want 3 (every poor-locality touch)", got)
	}
}

func TestPWSSkipsWriteSharedLinesWithGoodLocality(t *testing.T) {
	// The shared line is re-touched within the 16-line window: PWS must NOT
	// add redundant prefetches (the paper's uncovered contended misses).
	var s trace.Stream
	for rep := 0; rep < 5; rep++ {
		s = append(s, trace.Event{Kind: trace.Read, Addr: 0x8000, Gap: 30})
		for i := 0; i < 4; i++ {
			s = append(s, trace.Event{Kind: trace.Read, Addr: memory.Addr(0x8000 + 32*(i+1)), Gap: 30})
		}
	}
	var writer trace.Stream
	for i := 0; i <= 4; i++ {
		writer = append(writer, trace.Event{Kind: trace.Write, Addr: memory.Addr(0x8000 + 32*i), Gap: 5})
	}
	tr := &trace.Trace{Streams: []trace.Stream{s, writer}}
	pws, err := annotate(tr, Options{Strategy: PWS, Geometry: geom()})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range pws.Streams[0] {
		if e.Kind.IsPrefetch() && geom().LineAddr(e.Addr) == 0x8000 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("PWS issued %d prefetches of a filter-resident shared line, want 1 (cold only)", n)
	}
}

func TestAnnotatedTraceStaysValid(t *testing.T) {
	tr := &trace.Trace{Streams: []trace.Stream{
		{
			{Kind: trace.Lock, Addr: 0x100},
			{Kind: trace.Read, Addr: 0x1000, Gap: 50},
			{Kind: trace.Unlock, Addr: 0x100},
			{Kind: trace.Barrier, Addr: 1},
		},
		{
			{Kind: trace.Write, Addr: 0x1000, Gap: 20},
			{Kind: trace.Barrier, Addr: 1},
		},
	}}
	for _, st := range Strategies() {
		out, err := annotate(tr, Options{Strategy: st, Geometry: geom()})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%v: annotated trace invalid: %v", st, err)
		}
		if out.DemandRefs() != tr.DemandRefs() {
			t.Errorf("%v: annotation changed demand refs", st)
		}
	}
}
