package sim_test

import (
	"testing"

	"busprefetch/internal/coherence"
	"busprefetch/internal/memory"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// --- MSI protocol ---

func TestMSIReadFillsShared(t *testing.T) {
	c := cfg()
	c.Protocol = coherence.MSI
	// Under MSI a sole read fills Shared, so the following write costs an
	// invalidation bus operation — unlike Illinois (see
	// TestSiloWriteGetsExclusiveSilently).
	res := run(t, c, trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},
		{Kind: trace.Write, Addr: 0x1000},
	})
	if got := res.Bus.Ops[1]; got != 1 { // OpInvalidate
		t.Errorf("invalidation ops = %d, want 1 under MSI", got)
	}
}

func TestMSICostsMoreThanIllinois(t *testing.T) {
	// A read-then-write pattern over many private lines: free under
	// Illinois, one upgrade per line under MSI.
	var s trace.Stream
	for i := 0; i < 50; i++ {
		a := memory.Addr(0x1000 + i*64)
		s = append(s, trace.Event{Kind: trace.Read, Addr: a, Gap: 3})
		s = append(s, trace.Event{Kind: trace.Write, Addr: a, Gap: 3})
	}
	illinois := run(t, cfg(), s)
	c := cfg()
	c.Protocol = coherence.MSI
	msi := run(t, c, s)
	if msi.Cycles <= illinois.Cycles {
		t.Errorf("MSI (%d cycles) not slower than Illinois (%d)", msi.Cycles, illinois.Cycles)
	}
	if msi.Bus.Ops[1] != 50 {
		t.Errorf("MSI upgrades = %d, want 50", msi.Bus.Ops[1])
	}
	if illinois.Bus.Ops[1] != 0 {
		t.Errorf("Illinois upgrades = %d, want 0", illinois.Bus.Ops[1])
	}
}

func TestMSIInvariantsHold(t *testing.T) {
	c := cfg()
	c.Protocol = coherence.MSI
	c.CheckInvariants = true
	res := run(t, c,
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Write, Addr: 0x1000, Gap: 300},
			{Kind: trace.Read, Addr: 0x1000, Gap: 300},
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000, Gap: 150},
			{Kind: trace.Write, Addr: 0x1010, Gap: 600},
		},
	)
	if res.Cycles == 0 {
		t.Fatal("no progress")
	}
}

// --- Dragon write-update protocol ---

func TestDragonWriteToSharedBroadcastsUpdate(t *testing.T) {
	c := cfg()
	c.Protocol = coherence.Dragon
	// Both processors read the line; proc 0 then writes it. Under Dragon the
	// write broadcasts a word update instead of invalidating, so proc 1's
	// copy stays valid and its second read hits.
	res := run(t, c,
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Write, Addr: 0x1000, Gap: 300},
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000, Gap: 150},
			{Kind: trace.Read, Addr: 0x1000, Gap: 600},
		},
	)
	if got := res.Bus.Ops[3]; got != 1 { // OpUpdate
		t.Errorf("update ops = %d, want 1", got)
	}
	if got := res.Bus.Ops[1]; got != 0 { // OpInvalidate
		t.Errorf("invalidation ops = %d, want 0 under Dragon", got)
	}
	if res.Counters.UpdatesSent != 1 || res.Counters.UpdatesReceived != 1 {
		t.Errorf("updates sent/received = %d/%d, want 1/1",
			res.Counters.UpdatesSent, res.Counters.UpdatesReceived)
	}
	if got := res.Counters.InvalidationMisses(); got != 0 {
		t.Errorf("invalidation misses = %d, want 0 under Dragon", got)
	}
	// Proc 1's reread was kept current by the update: one cold miss each, no
	// third fetch.
	if got := res.Bus.Ops[0]; got != 2 { // OpFill
		t.Errorf("fills = %d, want 2", got)
	}
}

func TestDragonTradesInvalidationMissesForBusOccupancy(t *testing.T) {
	// A ping-pong write-sharing pattern: alternating writes to one line.
	// Illinois turns every remote write into an invalidation miss; Dragon
	// eliminates them entirely but pays a broadcast per write to a line that
	// stays shared.
	mk := func(gap0 uint32) trace.Stream {
		var s trace.Stream
		for i := 0; i < 40; i++ {
			s = append(s, trace.Event{Kind: trace.Write, Addr: 0x2000, Gap: 120})
		}
		s[0].Gap = gap0
		return s
	}
	illinois := run(t, cfg(), mk(0), mk(60))
	c := cfg()
	c.Protocol = coherence.Dragon
	dragon := run(t, c, mk(0), mk(60))
	if got := illinois.Counters.InvalidationMisses(); got == 0 {
		t.Fatal("pattern produced no invalidation misses under Illinois")
	}
	if got := dragon.Counters.InvalidationMisses(); got != 0 {
		t.Errorf("invalidation misses = %d, want 0 under Dragon", got)
	}
	if dragon.Counters.UpdatesSent == 0 {
		t.Error("Dragon sent no updates on a write-sharing pattern")
	}
}

func TestDragonLoneWriterStopsUpdating(t *testing.T) {
	c := cfg()
	c.Protocol = coherence.Dragon
	// Proc 1 reads the line, then displaces it with a conflicting read (same
	// cache set, one cache-size apart). Proc 0's first write broadcasts an
	// update, finds no remaining sharer, and takes the line exclusive; the
	// second write is silent.
	res := run(t, c,
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Write, Addr: 0x1000, Gap: 500},
			{Kind: trace.Write, Addr: 0x1004, Gap: 100},
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000, Gap: 120},
			{Kind: trace.Read, Addr: 0x9000, Gap: 120}, // evicts 0x1000
		},
	)
	if got := res.Bus.Ops[3]; got != 1 { // OpUpdate
		t.Errorf("update ops = %d, want 1 (second write must be silent)", got)
	}
	if res.Counters.UpdatesReceived != 0 {
		t.Errorf("updates received = %d, want 0 (no sharer left)", res.Counters.UpdatesReceived)
	}
}

func TestDragonInvariantsHold(t *testing.T) {
	c := cfg()
	c.Protocol = coherence.Dragon
	c.CheckInvariants = true
	// Interleaved writes from both processors hand the update-owner (Sm)
	// role back and forth; the checker verifies single-ownership at every
	// grant under the Dragon legality rule.
	res := run(t, c,
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000},
			{Kind: trace.Write, Addr: 0x1000, Gap: 300},
			{Kind: trace.Read, Addr: 0x1010, Gap: 300},
			{Kind: trace.Write, Addr: 0x1010, Gap: 300},
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0x1000, Gap: 150},
			{Kind: trace.Write, Addr: 0x1010, Gap: 450},
			{Kind: trace.Write, Addr: 0x1000, Gap: 300},
		},
	)
	if res.Cycles == 0 {
		t.Fatal("no progress")
	}
}

// --- Victim cache ---

func TestVictimCacheCatchesConflicts(t *testing.T) {
	// Two lines in the same set of a tiny direct-mapped cache, accessed
	// alternately: pure conflict misses without a victim cache, all victim
	// hits with one.
	g := memory.Geometry{CacheSize: 4 * 32, LineSize: 32, Assoc: 1}
	var s trace.Stream
	for i := 0; i < 20; i++ {
		s = append(s, trace.Event{Kind: trace.Read, Addr: 0, Gap: 2})
		s = append(s, trace.Event{Kind: trace.Read, Addr: 4 * 32, Gap: 2})
	}
	plain := cfg()
	plain.Geometry = g
	base := run(t, plain, s)

	withVictim := cfg()
	withVictim.Geometry = g
	withVictim.VictimCacheLines = 4
	vc := run(t, withVictim, s)

	if vc.Counters.VictimHits == 0 {
		t.Fatal("no victim hits on a pure conflict pattern")
	}
	if vc.Counters.TotalCPUMisses() >= base.Counters.TotalCPUMisses() {
		t.Errorf("victim cache did not reduce misses: %d vs %d",
			vc.Counters.TotalCPUMisses(), base.Counters.TotalCPUMisses())
	}
	if vc.Cycles >= base.Cycles {
		t.Errorf("victim cache did not reduce cycles: %d vs %d", vc.Cycles, base.Cycles)
	}
	if vc.Bus.TotalOps() >= base.Bus.TotalOps() {
		t.Errorf("victim hits still cost bus operations: %d vs %d",
			vc.Bus.TotalOps(), base.Bus.TotalOps())
	}
}

func TestVictimCacheIsCoherent(t *testing.T) {
	// Proc 0's line gets evicted into its victim cache; proc 1 then writes
	// the line. Proc 0's re-read must MISS (the victim copy was
	// invalidated by the snoop), not silently hit stale data.
	g := memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
	c := cfg()
	c.Geometry = g
	c.VictimCacheLines = 4
	c.CheckInvariants = true
	res := run(t, c,
		trace.Stream{
			{Kind: trace.Read, Addr: 0},           // fill
			{Kind: trace.Read, Addr: 2 * 32},      // evicts line 0 into victim
			{Kind: trace.Read, Addr: 0, Gap: 600}, // after proc 1's write
		},
		trace.Stream{
			{Kind: trace.Write, Addr: 0, Gap: 250},
		},
	)
	if res.Counters.VictimHits != 0 {
		t.Errorf("victim hit on an invalidated line (%d hits)", res.Counters.VictimHits)
	}
}

func TestVictimCacheSuppliesRemoteReads(t *testing.T) {
	// A Modified line sitting in proc 0's victim cache must still be
	// snooped by proc 1's read (downgrade + sharers), keeping one-owner.
	g := memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
	c := cfg()
	c.Geometry = g
	c.VictimCacheLines = 4
	c.CheckInvariants = true
	res := run(t, c,
		trace.Stream{
			{Kind: trace.Write, Addr: 0},     // M
			{Kind: trace.Read, Addr: 2 * 32}, // evict M line 0 into victim
		},
		trace.Stream{
			{Kind: trace.Read, Addr: 0, Gap: 400},
		},
	)
	if res.Cycles == 0 {
		t.Fatal("no progress")
	}
}

// --- Prefetch buffer (PrefetchToBuffer) ---

func TestBufferPrefetchHit(t *testing.T) {
	c := cfg()
	c.PrefetchTarget = sim.PrefetchToBuffer
	res := run(t, c, trace.Stream{
		{Kind: trace.Prefetch, Addr: 0x1000},
		{Kind: trace.Read, Addr: 0x1000, Gap: 200},
	})
	if res.Counters.StreamBufferHits != 1 {
		t.Errorf("buffer hits = %d, want 1", res.Counters.StreamBufferHits)
	}
	if res.Counters.TotalCPUMisses() != 0 {
		t.Errorf("CPU misses = %d, want 0", res.Counters.TotalCPUMisses())
	}
}

func TestBufferDoesNotPolluteCache(t *testing.T) {
	// Tiny cache, one set: a buffered prefetch must NOT evict the line the
	// CPU is using (the buffer's whole advantage, paper §3.1).
	g := memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
	c := cfg()
	c.Geometry = g
	c.PrefetchTarget = sim.PrefetchToBuffer
	res := run(t, c, trace.Stream{
		{Kind: trace.Read, Addr: 0},               // working line
		{Kind: trace.Prefetch, Addr: 2 * 32},      // same set; buffered, no eviction
		{Kind: trace.Read, Addr: 0, Gap: 300},     // must still hit
		{Kind: trace.Read, Addr: 2 * 32, Gap: 10}, // buffer hit
	})
	if got := res.Counters.TotalCPUMisses(); got != 1 {
		t.Errorf("CPU misses = %d, want 1 (only the cold miss)", got)
	}
	if res.Counters.StreamBufferHits != 1 {
		t.Errorf("buffer hits = %d", res.Counters.StreamBufferHits)
	}
}

func TestBufferDropsRemotelyWrittenLines(t *testing.T) {
	c := cfg()
	c.PrefetchTarget = sim.PrefetchToBuffer
	res := run(t, c,
		trace.Stream{
			{Kind: trace.Prefetch, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 800},
		},
		trace.Stream{
			{Kind: trace.Write, Addr: 0x1000, Gap: 300},
		},
	)
	if res.Counters.StreamBufferDrops != 1 {
		t.Errorf("buffer drops = %d, want 1", res.Counters.StreamBufferDrops)
	}
	if res.Counters.StreamBufferHits != 0 {
		t.Errorf("buffer hits = %d, want 0 (entry was dropped)", res.Counters.StreamBufferHits)
	}
	// The read pays a full miss: the buffer could not be trusted.
	if res.Counters.TotalCPUMisses() == 0 {
		t.Error("demand access hit a dropped buffer entry")
	}
}

func TestBufferFIFOEviction(t *testing.T) {
	c := cfg()
	c.PrefetchTarget = sim.PrefetchToBuffer
	c.StreamBufferLines = 2
	var s trace.Stream
	for i := 0; i < 3; i++ { // three prefetches into a 2-line buffer
		s = append(s, trace.Event{Kind: trace.Prefetch, Addr: memory.Addr(0x1000 + i*64), Gap: 5})
	}
	s = append(s, trace.Event{Kind: trace.Read, Addr: 0x1000, Gap: 500}) // oldest: evicted
	s = append(s, trace.Event{Kind: trace.Read, Addr: 0x1080, Gap: 10})  // newest: present
	res := run(t, c, s)
	if res.Counters.StreamBufferHits != 1 {
		t.Errorf("buffer hits = %d, want 1 (FIFO evicted the oldest)", res.Counters.StreamBufferHits)
	}
}

func TestConfigValidationExtensions(t *testing.T) {
	c := cfg()
	c.VictimCacheLines = -1
	if err := c.Validate(); err == nil {
		t.Error("negative victim cache accepted")
	}
	c = cfg()
	c.Protocol = coherence.Kind(9)
	if err := c.Validate(); err == nil {
		t.Error("unknown protocol accepted")
	}
	c = cfg()
	c.PrefetchTarget = sim.PrefetchTarget(9)
	if err := c.Validate(); err == nil {
		t.Error("unknown prefetch target accepted")
	}
}

// --- Region attribution ---

func TestRegionAttribution(t *testing.T) {
	c := cfg()
	c.Regions = []memory.Region{
		{Name: "alpha", Base: 0x1000, Size: 0x1000, Shared: true},
		{Name: "beta", Base: 0x4000, Size: 0x1000, Shared: false},
	}
	res := run(t, c, trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},          // alpha miss
		{Kind: trace.Read, Addr: 0x1040, Gap: 10}, // alpha miss
		{Kind: trace.Read, Addr: 0x4000, Gap: 10}, // beta miss
		{Kind: trace.Read, Addr: 0xa020, Gap: 10}, // unattributed miss (distinct set)
		{Kind: trace.Read, Addr: 0x1000, Gap: 10}, // alpha hit
	})
	if got := res.RegionMisses["alpha"].Total(); got != 2 {
		t.Errorf("alpha misses = %d, want 2", got)
	}
	if got := res.RegionMisses["beta"].Total(); got != 1 {
		t.Errorf("beta misses = %d, want 1", got)
	}
	if got := res.RegionMisses["(unattributed)"].Total(); got != 1 {
		t.Errorf("unattributed misses = %d, want 1", got)
	}
}

func TestRegionAttributionSumsToTotal(t *testing.T) {
	w, err := workload.ByName("pverify")
	if err != nil {
		t.Fatal(err)
	}
	tr, info, err := generate(w, workload.Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.Regions = info.Regions
	res, err := sim.RunSource(c, trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, rm := range res.RegionMisses {
		sum += rm.Total()
	}
	if sum != res.Counters.TotalCPUMisses() {
		t.Errorf("region misses sum to %d, total is %d", sum, res.Counters.TotalCPUMisses())
	}
	// The interleaved value array must be a major miss source.
	if v := res.RegionMisses["values"]; v.Total() < res.Counters.TotalCPUMisses()/4 {
		t.Errorf("values region only %d of %d misses", v.Total(), res.Counters.TotalCPUMisses())
	}
}

func TestNoRegionsMeansNilMap(t *testing.T) {
	res := run(t, cfg(), trace.Stream{{Kind: trace.Read, Addr: 0}})
	if res.RegionMisses != nil {
		t.Error("RegionMisses non-nil without Config.Regions")
	}
}
