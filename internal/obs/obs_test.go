package obs

import (
	"math/rand"
	"testing"

	"busprefetch/internal/bus"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.PrefetchIssued(0, 1, 2)
	r.PrefetchGranted(0, 1, 3)
	r.PrefetchMerged(0, 1, 4)
	r.PrefetchFilled(0, 1, 5)
	r.PrefetchFirstUse(0, 1, 6)
	r.PrefetchEvicted(0, 1, 7)
	r.PrefetchInvalidated(0, 1, 8)
	r.Wait(0, PhaseMemWait, 1, 5)
	r.ProcFinished(0, 10)
	r.BusOccupied(0, 1, 8, bus.OpFill, bus.Demand, 0)
	r.Finish(10)
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder spans = %v", got)
	}
	if got := r.Summary(); got != nil {
		t.Fatalf("nil recorder summary = %v", got)
	}
}

// TestDisabledRecorderAllocatesNothing pins the tentpole's zero-allocation
// claim: with the recorder disabled (nil) the entire method surface performs
// no heap allocation.
func TestDisabledRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.PrefetchIssued(0, 1, 2)
		r.PrefetchGranted(0, 1, 3)
		r.PrefetchMerged(0, 1, 4)
		r.PrefetchFilled(0, 1, 5)
		r.PrefetchFirstUse(0, 1, 6)
		r.PrefetchEvicted(0, 1, 7)
		r.PrefetchInvalidated(0, 1, 8)
		r.Wait(0, PhaseMemWait, 1, 5)
		r.BusOccupied(0, 1, 8, bus.OpFill, bus.Demand, 0)
		r.Finish(10)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f times per op batch", allocs)
	}
}

func TestLifetimeClassification(t *testing.T) {
	r := New(2, Options{})

	// Useful: issue -> grant -> fill -> first use.
	r.PrefetchIssued(0, 100, 10)
	r.PrefetchGranted(0, 100, 105)
	r.PrefetchFilled(0, 100, 113)
	r.PrefetchFirstUse(0, 100, 150)

	// Late: a demand access merged while in flight.
	r.PrefetchIssued(0, 200, 20)
	r.PrefetchMerged(0, 200, 60)
	r.PrefetchGranted(0, 200, 115)
	r.PrefetchFilled(0, 200, 123)

	// Evicted before use.
	r.PrefetchIssued(1, 300, 30)
	r.PrefetchGranted(1, 300, 125)
	r.PrefetchFilled(1, 300, 133)
	r.PrefetchEvicted(1, 300, 400)

	// Invalidated before use.
	r.PrefetchIssued(1, 400, 40)
	r.PrefetchGranted(1, 400, 135)
	r.PrefetchFilled(1, 400, 143)
	r.PrefetchInvalidated(1, 400, 500)

	// Unused: filled, still resident at the end.
	r.PrefetchIssued(0, 500, 50)
	r.PrefetchGranted(0, 500, 145)
	r.PrefetchFilled(0, 500, 153)

	// Unused: never completed.
	r.PrefetchIssued(1, 600, 60)

	r.Finish(1000)
	s := r.Summary()

	want := map[string]uint64{
		"useful": 1, "late": 1, "evicted": 1, "invalidated": 1, "unused": 2,
	}
	for k, v := range want {
		if s.Lifetimes[k] != v {
			t.Errorf("Lifetimes[%q] = %d, want %d (all: %v)", k, s.Lifetimes[k], v, s.Lifetimes)
		}
	}
	if got := s.LifetimesTotal(); got != 6 {
		t.Errorf("LifetimesTotal = %d, want 6", got)
	}
	// 2 of 6 bus-reaching prefetches were demand used.
	if got := s.Accuracy(); got != 2.0/6.0 {
		t.Errorf("Accuracy = %v, want 1/3", got)
	}
	// 1 of the 2 accurate prefetches completed in time.
	if got := s.Timeliness(); got != 0.5 {
		t.Errorf("Timeliness = %v, want 0.5", got)
	}
	// 1 useful prefetch vs 9 demand misses that still fetched.
	if got := s.Coverage(9); got != 0.1 {
		t.Errorf("Coverage(9) = %v, want 0.1", got)
	}
	if got := s.IssueToGrant.Samples; got != 5 {
		t.Errorf("IssueToGrant.Samples = %d, want 5", got)
	}
	if got := s.IssueToFill.Samples; got != 5 {
		t.Errorf("IssueToFill.Samples = %d, want 5", got)
	}
	if got := s.FillToUse.Samples; got != 1 {
		t.Errorf("FillToUse.Samples = %d, want 1", got)
	}
}

func TestDoubleEventsAreIdempotent(t *testing.T) {
	r := New(1, Options{})
	r.PrefetchIssued(0, 100, 10)
	r.PrefetchGranted(0, 100, 105)
	r.PrefetchGranted(0, 100, 110) // ignored: already granted
	r.PrefetchFilled(0, 100, 113)
	r.PrefetchFilled(0, 100, 120) // ignored: already filled
	r.PrefetchFirstUse(0, 100, 150)
	r.PrefetchFirstUse(0, 100, 160)    // ignored: lifetime closed
	r.PrefetchEvicted(0, 100, 170)     // ignored: lifetime closed
	r.PrefetchInvalidated(0, 100, 180) // ignored: lifetime closed
	r.Finish(1000)
	r.Finish(2000) // idempotent
	s := r.Summary()
	if got := s.LifetimesTotal(); got != 1 {
		t.Fatalf("LifetimesTotal = %d, want 1 (lifetimes: %v)", got, s.Lifetimes)
	}
	if s.Lifetimes["useful"] != 1 {
		t.Fatalf("Lifetimes = %v, want 1 useful", s.Lifetimes)
	}
	if s.IssueToGrant.Samples != 1 || s.IssueToFill.Samples != 1 {
		t.Fatalf("histogram samples = %d/%d, want 1/1", s.IssueToGrant.Samples, s.IssueToFill.Samples)
	}
}

func TestUnfilledLifetimeIgnoresEarlyDeath(t *testing.T) {
	// Eviction/invalidation/first-use events for a lifetime that never
	// filled must not close it; it ends as unused.
	r := New(1, Options{})
	r.PrefetchIssued(0, 100, 10)
	r.PrefetchFirstUse(0, 100, 20)
	r.PrefetchEvicted(0, 100, 30)
	r.PrefetchInvalidated(0, 100, 40)
	r.Finish(100)
	s := r.Summary()
	if s.Lifetimes["unused"] != 1 || s.LifetimesTotal() != 1 {
		t.Fatalf("Lifetimes = %v, want exactly 1 unused", s.Lifetimes)
	}
}

func TestOutOfRangeProcIgnored(t *testing.T) {
	r := New(1, Options{})
	r.PrefetchIssued(-1, 1, 2)
	r.PrefetchIssued(7, 1, 2)
	r.Wait(-1, PhaseMemWait, 0, 5)
	r.Wait(7, PhaseMemWait, 0, 5)
	r.ProcFinished(9, 5)
	r.Finish(10)
	s := r.Summary()
	if s.LifetimesTotal() != 0 || len(s.PhaseCycles) != 0 {
		t.Fatalf("out-of-range events recorded: %v %v", s.Lifetimes, s.PhaseCycles)
	}
}

func TestWaitAttributesComputeGaps(t *testing.T) {
	r := New(1, Options{Spans: true})
	r.Wait(0, PhaseMemWait, 10, 110)   // compute [0,10), mem-wait [10,110)
	r.Wait(0, PhaseLockWait, 150, 200) // compute [110,150), lock-wait [150,200)
	r.Wait(0, PhaseBarrierWait, 200, 260)
	r.Wait(0, PhaseBufferWait, 260, 270)
	r.ProcFinished(0, 300) // compute [270,300)
	r.ProcFinished(0, 300) // no-op: already there
	r.Finish(300)
	s := r.Summary()
	want := map[string]uint64{
		"compute": 10 + 40 + 30, "mem-wait": 100, "lock-wait": 50, "barrier-wait": 60, "buffer-wait": 10,
	}
	for k, v := range want {
		if s.PhaseCycles[k] != v {
			t.Errorf("PhaseCycles[%q] = %d, want %d", k, s.PhaseCycles[k], v)
		}
	}
	spans := r.Spans()
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want 7: %v", len(spans), spans)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not ordered by start: %v", spans)
		}
	}
}

func TestBusOccupiedAggregates(t *testing.T) {
	r := New(1, Options{Spans: true})
	r.BusOccupied(0, 10, 8, bus.OpFill, bus.Demand, 0)
	r.BusOccupied(0, 20, 8, bus.OpFill, bus.Prefetch, 0)
	r.BusOccupied(0, 30, 8, bus.OpFill, bus.Demand, 0)
	r.BusOccupied(0, 40, 2, bus.OpInvalidate, bus.Demand, 0)
	r.BusOccupied(0, 50, 8, bus.OpWriteback, bus.Writeback, 0)
	// Link 2 of a multi-link fabric: its own keys and track.
	r.BusOccupied(2, 60, 8, bus.OpFill, bus.Prefetch, 0)
	r.BusOccupied(2, 70, 2, bus.OpInvalidate, bus.Demand, 0)
	r.BusOccupied(2, 80, 2, bus.OpInvalidate, bus.Prefetch, 0)
	r.Finish(100)
	s := r.Summary()
	if len(s.BusOps) != 6 {
		t.Errorf("BusOps = %v, want 6 keys", s.BusOps)
	}
	if c := s.BusOps["fill/prefetch@2"]; c.Grants != 1 || c.Cycles != 8 {
		t.Errorf("fill/prefetch@2 = %+v, want 1 grant / 8 cycles", c)
	}
	if c := s.BusOps["invalidate@2"]; c.Grants != 2 || c.Cycles != 4 {
		t.Errorf("invalidate@2 = %+v, want 2 grants / 4 cycles", c)
	}
	if c := s.BusOps["fill/demand"]; c.Grants != 2 || c.Cycles != 16 {
		t.Errorf("fill/demand = %+v, want 2 grants / 16 cycles", c)
	}
	if c := s.BusOps["fill/prefetch"]; c.Grants != 1 || c.Cycles != 8 {
		t.Errorf("fill/prefetch = %+v, want 1 grant / 8 cycles", c)
	}
	if c := s.BusOps["invalidate"]; c.Grants != 1 || c.Cycles != 2 {
		t.Errorf("invalidate = %+v", c)
	}
	if c := s.BusOps["writeback"]; c.Grants != 1 || c.Cycles != 8 {
		t.Errorf("writeback = %+v", c)
	}
	tracks := map[int]int{}
	for _, sp := range r.Spans() {
		tracks[sp.Track]++
	}
	if tracks[BusTrack] != 5 || tracks[BusTrack-2] != 3 {
		t.Errorf("bus spans per track = %v, want 5 on BusTrack and 3 on BusTrack-2", tracks)
	}
}

// TestLifetimeTableMatchesMap drives a processor's lifetime table and a
// map with the same random opens and removals on a few colliding line
// addresses: every lookup must agree, through growth and the backward
// shifts removal makes.
func TestLifetimeTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab lifetimeTable
	ref := map[uint64]uint64{}
	for step := uint64(0); step < 20000; step++ {
		la := uint64(rng.Intn(64)) * 32
		if rng.Intn(3) == 0 {
			tab.open(la, step)
			ref[la] = step
		} else if i := tab.find(la); i >= 0 {
			tab.remove(i)
			delete(ref, la)
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: table holds %d lifetimes, map %d", step, tab.n, len(ref))
		}
		for k, issue := range ref {
			if i := tab.find(k); i < 0 || tab.slots[i].issue != issue {
				t.Fatalf("step %d: line %#x lost or stale (slot %d)", step, k, i)
			}
		}
	}
}

func TestSummaryOnlyModeKeepsNoSpans(t *testing.T) {
	r := New(1, Options{})
	r.Wait(0, PhaseMemWait, 10, 110)
	r.BusOccupied(0, 10, 8, bus.OpFill, bus.Demand, 0)
	r.PrefetchIssued(0, 100, 10)
	r.PrefetchGranted(0, 100, 105)
	r.PrefetchFilled(0, 100, 113)
	r.Finish(200)
	if got := r.Spans(); len(got) != 0 {
		t.Fatalf("summary-only recorder kept %d spans", len(got))
	}
	if r.Summary().PhaseCycles["mem-wait"] != 100 {
		t.Fatal("summary-only recorder lost phase totals")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]uint64{10, 20, 40})
	for _, v := range []uint64{5, 10, 11, 19, 35, 100} {
		h.Observe(v)
	}
	if got := h.Counts; got[0] != 2 || got[1] != 2 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("counts = %v", got)
	}
	if got := h.Mean(); got != 180.0/6.0 {
		t.Errorf("Mean = %v, want 30", got)
	}
	// The median rank (3 of 6) falls at the top of the (10,20] bucket.
	if got := h.Quantile(0.5); got <= 10 || got > 20 {
		t.Errorf("Quantile(0.5) = %v, want in (10,20]", got)
	}
	// The max falls in the overflow bucket, reported as the last finite edge.
	if got := h.Quantile(1.0); got != 40 {
		t.Errorf("Quantile(1.0) = %v, want 40", got)
	}
	var empty Histogram
	empty = NewHistogram([]uint64{10})
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile/mean not 0")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	for v := uint64(0); v < 2000; v += 7 {
		h.Observe(v)
	}
	prev := -1.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, got, prev)
		}
		prev = got
	}
}

func TestPhaseAndLifetimeNames(t *testing.T) {
	if PhaseCompute.String() != "compute" || PhaseBufferWait.String() != "buffer-wait" {
		t.Error("phase names wrong")
	}
	if Phase(250).String() != "phase(?)" {
		t.Error("out-of-range phase name")
	}
	if LifeUseful.String() != "useful" || LifeUnused.String() != "unused" {
		t.Error("lifetime names wrong")
	}
	if LifetimeClass(250).String() != "lifetime(?)" {
		t.Error("out-of-range lifetime name")
	}
}
