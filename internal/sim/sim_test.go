package sim_test

import (
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

func cfg() sim.Config {
	c := sim.DefaultConfig() // 100-cycle latency, 8-cycle transfer, 2-cycle invalidate
	return c
}

func run(t *testing.T, c sim.Config, streams ...trace.Stream) *sim.Result {
	t.Helper()
	res, err := sim.RunSource(c, trace.FromTrace(&trace.Trace{Name: "test", Streams: streams}))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// generate materializes a workload's trace, for tests that replay one
// trace several times.
func generate(w *workload.Workload, p workload.Params) (*trace.Trace, workload.Info, error) {
	src, info, err := w.Source(p)
	if err != nil {
		return nil, workload.Info{}, err
	}
	tr, err := trace.Materialize(src)
	return tr, info, err
}

func TestConfigValidation(t *testing.T) {
	bad := []sim.Config{
		{},
		{Geometry: memory.DefaultGeometry(), MemLatency: 0, TransferCycles: 8, PrefetchBufferDepth: 16},
		{Geometry: memory.DefaultGeometry(), MemLatency: 100, TransferCycles: 0, PrefetchBufferDepth: 16},
		{Geometry: memory.DefaultGeometry(), MemLatency: 100, TransferCycles: 101, PrefetchBufferDepth: 16},
		{Geometry: memory.DefaultGeometry(), MemLatency: 100, TransferCycles: 8, PrefetchBufferDepth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if err := cfg().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	_, err := sim.RunSource(cfg(), trace.FromTrace(&trace.Trace{Streams: []trace.Stream{{{Kind: trace.Unlock, Addr: 1}}}}))
	if err == nil {
		t.Error("unbalanced unlock accepted")
	}
	_, err = sim.RunSource(cfg(), trace.FromTrace(&trace.Trace{}))
	if err == nil {
		t.Error("empty trace accepted")
	}
}

func TestSingleMissTiming(t *testing.T) {
	// One processor, one cold read: miss detected at 0, uncontended phase
	// 92 cycles, transfer 8, access completion 1 -> finish at 101.
	res := run(t, cfg(), trace.Stream{{Kind: trace.Read, Addr: 0x1000}})
	if res.Cycles != 101 {
		t.Errorf("cycles = %d, want 101", res.Cycles)
	}
	if res.Counters.TotalCPUMisses() != 1 {
		t.Errorf("misses = %d", res.Counters.TotalCPUMisses())
	}
	if res.Counters.CPUMisses[sim.NonSharingNotPref] != 1 {
		t.Error("cold miss not classified non-sharing/not-prefetched")
	}
	if res.Bus.BusyCycles != 8 {
		t.Errorf("bus busy %d, want 8", res.Bus.BusyCycles)
	}
}

func TestHitTiming(t *testing.T) {
	// Second access to the same line hits: one extra cycle.
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},
		{Kind: trace.Read, Addr: 0x1004},
	})
	if res.Cycles != 102 {
		t.Errorf("cycles = %d, want 102", res.Cycles)
	}
	if res.Counters.TotalCPUMisses() != 1 {
		t.Errorf("misses = %d, want 1", res.Counters.TotalCPUMisses())
	}
}

func TestGapCostsInstructionCycles(t *testing.T) {
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},
		{Kind: trace.Read, Addr: 0x1004, Gap: 17},
	})
	if res.Cycles != 102+17 {
		t.Errorf("cycles = %d, want 119", res.Cycles)
	}
}

func TestSiloWriteGetsExclusiveSilently(t *testing.T) {
	// Illinois: a read with no other sharers fills Exclusive, so a
	// subsequent write needs no bus operation.
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},
		{Kind: trace.Write, Addr: 0x1000},
	})
	if res.Cycles != 102 {
		t.Errorf("cycles = %d, want 102 (silent E->M)", res.Cycles)
	}
	if got := res.Bus.Ops[1]; got != 0 { // OpInvalidate
		t.Errorf("invalidation ops = %d, want 0", got)
	}
}

func TestWriteToSharedLinePostsInvalidation(t *testing.T) {
	// Proc 1 reads the line first (so proc 0's read fills Shared), then
	// proc 0 writes it: that write must post an invalidation bus operation.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000, Gap: 150},
			{Kind: trace.Write, Addr: 0x1000, Gap: 300},
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
		},
	)
	if got := res.Bus.Ops[1]; got != 1 { // OpInvalidate
		t.Errorf("invalidation ops = %d, want 1", got)
	}
}

func TestInvalidationMissAndFalseSharing(t *testing.T) {
	// Proc 0 reads word 0 of a line; proc 1 writes word 4 of the same line;
	// proc 0 re-reads word 0: an invalidation miss whose invalidating write
	// touched a word proc 0 never accessed -> false sharing.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 600},
		},
		trace.Stream{
			{Kind: trace.Write, Addr: 0x1010, Gap: 200},
		},
	)
	if got := res.Counters.InvalidationMisses(); got != 1 {
		t.Fatalf("invalidation misses = %d, want 1", got)
	}
	if res.Counters.FalseSharing != 1 {
		t.Errorf("false sharing = %d, want 1", res.Counters.FalseSharing)
	}
}

func TestTrueSharingMissIsNotFalse(t *testing.T) {
	// Same shape, but proc 1 writes the word proc 0 reads.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 600},
		},
		trace.Stream{
			{Kind: trace.Write, Addr: 0x1000, Gap: 200},
		},
	)
	if got := res.Counters.InvalidationMisses(); got != 1 {
		t.Fatalf("invalidation misses = %d, want 1", got)
	}
	if res.Counters.FalseSharing != 0 {
		t.Errorf("false sharing = %d, want 0 (write hit an accessed word)", res.Counters.FalseSharing)
	}
}

func TestReplacedLineIsNonSharingMiss(t *testing.T) {
	// Two lines mapping to the same set of a tiny cache: the second fetch
	// evicts the first, so re-reading the first is a non-sharing miss.
	c := cfg()
	c.Geometry = memory.Geometry{CacheSize: 4 * 32, LineSize: 32, Assoc: 1}
	res := run(t, c, trace.Stream{
		{Kind: trace.Read, Addr: 0},
		{Kind: trace.Read, Addr: 4 * 32},
		{Kind: trace.Read, Addr: 0},
	})
	if got := res.Counters.CPUMisses[sim.NonSharingNotPref]; got != 3 {
		t.Errorf("non-sharing misses = %d, want 3", got)
	}
	if res.Counters.InvalidationMisses() != 0 {
		t.Error("replacement misclassified as invalidation")
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	// A prefetch issued far enough ahead turns the demand access into a hit.
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.Prefetch, Addr: 0x1000},
		{Kind: trace.Read, Addr: 0x1000, Gap: 200},
	})
	if got := res.Counters.TotalCPUMisses(); got != 0 {
		t.Errorf("CPU misses = %d, want 0 (prefetch covered)", got)
	}
	if res.Counters.PrefetchFetches != 1 {
		t.Errorf("prefetch fetches = %d", res.Counters.PrefetchFetches)
	}
	// 1 prefetch instr + 200 gap + 1 access = 202.
	if res.Cycles != 202 {
		t.Errorf("cycles = %d, want 202", res.Cycles)
	}
}

func TestPrefetchInProgressMiss(t *testing.T) {
	// The demand access arrives 10 cycles after the prefetch: it merges and
	// waits for the residual latency.
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.Prefetch, Addr: 0x1000},
		{Kind: trace.Read, Addr: 0x1000, Gap: 10},
	})
	if got := res.Counters.CPUMisses[sim.PrefetchInProgress]; got != 1 {
		t.Fatalf("prefetch-in-progress misses = %d, want 1", got)
	}
	// Prefetch issued at 1 (after its instruction cycle), fills at 101; the
	// read completes at 102.
	if res.Cycles != 102 {
		t.Errorf("cycles = %d, want 102", res.Cycles)
	}
}

func TestPrefetchOfResidentLineIsFree(t *testing.T) {
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},
		{Kind: trace.Prefetch, Addr: 0x1000},
		{Kind: trace.Read, Addr: 0x1000},
	})
	if res.Counters.PrefetchCacheHits != 1 {
		t.Errorf("prefetch cache hits = %d", res.Counters.PrefetchCacheHits)
	}
	if res.Counters.PrefetchFetches != 0 {
		t.Errorf("prefetch fetches = %d, want 0", res.Counters.PrefetchFetches)
	}
}

func TestDuplicatePrefetchMerges(t *testing.T) {
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.Prefetch, Addr: 0x1000},
		{Kind: trace.Prefetch, Addr: 0x1004},
		{Kind: trace.Read, Addr: 0x1000, Gap: 300},
	})
	if res.Counters.PrefetchMerged != 1 {
		t.Errorf("merged prefetches = %d, want 1", res.Counters.PrefetchMerged)
	}
	if res.Counters.PrefetchFetches != 1 {
		t.Errorf("prefetch fetches = %d, want 1", res.Counters.PrefetchFetches)
	}
}

func TestPrefetchBufferBackpressure(t *testing.T) {
	c := cfg()
	c.PrefetchBufferDepth = 2
	var s trace.Stream
	for i := 0; i < 4; i++ {
		s = append(s, trace.Event{Kind: trace.Prefetch, Addr: memory.Addr(0x1000 + 64*i)})
	}
	s = append(s, trace.Event{Kind: trace.Read, Addr: 0x1000, Gap: 500})
	res := run(t, c, s)
	var buf uint64
	for _, p := range res.Procs {
		buf += p.BufferWait
	}
	if buf == 0 {
		t.Error("no buffer-full stall with depth 2 and 4 outstanding prefetches")
	}
}

func TestExclusivePrefetchAllowsSilentWrite(t *testing.T) {
	res := run(t, cfg(), trace.Stream{
		{Kind: trace.PrefetchExcl, Addr: 0x1000},
		{Kind: trace.Write, Addr: 0x1000, Gap: 200},
	})
	if got := res.Bus.Ops[1]; got != 0 {
		t.Errorf("invalidation ops = %d, want 0 after exclusive prefetch", got)
	}
	if res.Counters.TotalCPUMisses() != 0 {
		t.Errorf("misses = %d", res.Counters.TotalCPUMisses())
	}
}

func TestExclusivePrefetchInvalidatesRemoteCopies(t *testing.T) {
	// Proc 1 holds the line; proc 0's exclusive prefetch invalidates it, so
	// proc 1's re-read is an invalidation miss classified "prefetched" on
	// proc 0's side... and proc 1 sees a plain invalidation miss.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.PrefetchExcl, Addr: 0x1000, Gap: 200},
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 600},
		},
	)
	if got := res.Counters.InvalidationMisses(); got != 1 {
		t.Errorf("invalidation misses = %d, want 1 (victim of exclusive prefetch)", got)
	}
}

func TestWastedPrefetchClassifiedPrefetched(t *testing.T) {
	// Tiny cache: the second prefetch evicts the first line before its use,
	// so the demand miss is "non-sharing, prefetched".
	c := cfg()
	c.Geometry = memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
	res := run(t, c, trace.Stream{
		{Kind: trace.Prefetch, Addr: 0},
		{Kind: trace.Prefetch, Addr: 2 * 32, Gap: 150}, // same set, evicts line 0
		{Kind: trace.Read, Addr: 0, Gap: 300},
	})
	if got := res.Counters.CPUMisses[sim.NonSharingPref]; got != 1 {
		t.Errorf("non-sharing prefetched misses = %d, want 1 (components: %v)", got, res.Counters.CPUMisses)
	}
}

func TestInvalidatedPrefetchClassifiedInvalPrefetched(t *testing.T) {
	// Proc 0 prefetches a line; proc 1 writes it before proc 0's use.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.Prefetch, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 800},
		},
		trace.Stream{
			{Kind: trace.Write, Addr: 0x1010, Gap: 300},
		},
	)
	if got := res.Counters.CPUMisses[sim.InvalPref]; got != 1 {
		t.Errorf("invalidation-prefetched misses = %d (components %v)", got, res.Counters.CPUMisses)
	}
}

func TestLockMutualExclusionAndFCFS(t *testing.T) {
	// Both processors contend for one lock; the loser must wait for the
	// holder's unlock.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.Lock, Addr: 0x2000},
			{Kind: trace.Read, Addr: 0x3000, Gap: 50},
			{Kind: trace.Unlock, Addr: 0x2000},
		},
		trace.Stream{
			{Kind: trace.Lock, Addr: 0x2000, Gap: 5},
			{Kind: trace.Read, Addr: 0x4000, Gap: 50},
			{Kind: trace.Unlock, Addr: 0x2000},
		},
	)
	var lockWait uint64
	for _, p := range res.Procs {
		lockWait += p.LockWait
	}
	if lockWait == 0 {
		t.Error("no lock contention recorded")
	}
	if res.Counters.SyncRefs != 4 {
		t.Errorf("sync refs = %d, want 4 (2 locks + 2 unlocks)", res.Counters.SyncRefs)
	}
}

func TestBarrierReleasesAtLatestArrival(t *testing.T) {
	// Proc 0 reaches the barrier after ~101 cycles (one miss); proc 1
	// arrives at cycle 5. Both must leave at proc 0's arrival time.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Barrier, Addr: 1},
			{Kind: trace.Read, Addr: 0x1004},
		},
		trace.Stream{
			{Kind: trace.Barrier, Addr: 1, Gap: 5},
			{Kind: trace.Read, Addr: 0x5000},
		},
	)
	if res.Procs[1].BarrierWait < 90 {
		t.Errorf("proc 1 barrier wait = %d, want ~96", res.Procs[1].BarrierWait)
	}
	// Proc 1 finishes its read ~101 cycles after release (~101): ~202.
	if res.Procs[1].FinishTime < 200 {
		t.Errorf("proc 1 finished at %d, too early", res.Procs[1].FinishTime)
	}
}

func TestRepeatedBarrier(t *testing.T) {
	mk := func() trace.Stream {
		return trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Barrier, Addr: 1},
			{Kind: trace.Read, Addr: 0x2000},
			{Kind: trace.Barrier, Addr: 1}, // same id reused
		}
	}
	res := run(t, cfg(), mk(), mk(), mk())
	if res.Cycles == 0 {
		t.Fatal("no progress through repeated barriers")
	}
}

func TestCacheToCacheSharingStates(t *testing.T) {
	// After proc 0 fetches and proc 1 fetches the same line, both hold it
	// Shared; a write by proc 0 then posts an invalidation and proc 1
	// misses.
	res := run(t, cfg(),
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Write, Addr: 0x1000, Gap: 500},
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000, Gap: 150},
			{Kind: trace.Read, Addr: 0x1000, Gap: 800},
		},
	)
	if got := res.Bus.Ops[1]; got != 1 {
		t.Errorf("invalidation ops = %d, want 1", got)
	}
	if got := res.Counters.InvalidationMisses(); got != 1 {
		t.Errorf("invalidation misses = %d, want 1", got)
	}
}

func TestBusUtilizationBounded(t *testing.T) {
	res := run(t, cfg(), trace.Stream{{Kind: trace.Read, Addr: 0}})
	if u := res.BusUtilization(); u < 0 || u > 1 {
		t.Errorf("bus utilization %f out of range", u)
	}
	if u := res.MeanProcUtilization(); u <= 0 || u > 1 {
		t.Errorf("proc utilization %f out of range", u)
	}
}

func TestWaitBreakdownSumsToOne(t *testing.T) {
	w, err := workload.ByName("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := generate(w, workload.Params{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSource(cfg(), trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	busy, mem, lock, barrier, buffer := res.WaitBreakdown()
	sum := busy + mem + lock + barrier + buffer
	if sum < 0.95 || sum > 1.01 {
		t.Errorf("wait breakdown sums to %f (busy %f mem %f lock %f barrier %f buffer %f)",
			sum, busy, mem, lock, barrier, buffer)
	}
}

// TestCoherenceInvariants runs every workload at small scale with the MESI
// invariant checker enabled; any single-owner violation panics inside the
// simulator.
func TestCoherenceInvariants(t *testing.T) {
	for _, name := range []string{"topopt", "mp3d", "locus", "pverify", "water"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tr, _, err := generate(w, workload.Params{Scale: 0.03, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			c := cfg()
			c.CheckInvariants = true
			if _, err := sim.RunSource(c, trace.FromTrace(tr)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterminism: identical configurations must produce identical results.
func TestDeterminism(t *testing.T) {
	w, err := workload.ByName("pverify")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := generate(w, workload.Params{Scale: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.RunSource(cfg(), trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunSource(cfg(), trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Counters != b.Counters {
		t.Error("simulation is not deterministic")
	}
}

func TestSlowerBusRunsLonger(t *testing.T) {
	w, err := workload.ByName("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := generate(w, workload.Params{Scale: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for _, transfer := range []int{4, 16, 32} {
		c := cfg()
		c.TransferCycles = transfer
		res, err := sim.RunSource(c, trace.FromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles <= prev {
			t.Errorf("T=%d cycles %d not greater than previous %d", transfer, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}
