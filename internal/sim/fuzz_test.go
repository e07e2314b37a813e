package sim_test

import (
	"cmp"
	"math/rand"
	"testing"

	"busprefetch/internal/bus"
	"busprefetch/internal/coherence"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
)

// randomTrace builds a small adversarial trace: several processors
// hammering a handful of cache lines with random reads, writes and
// prefetches of both modes — the densest possible coherence traffic.
func randomTrace(seed int64, procs, events, lines int) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Streams: make([]trace.Stream, procs)}
	for p := range tr.Streams {
		var s trace.Stream
		for i := 0; i < events; i++ {
			k := trace.Kind(r.Intn(4)) // Read, Write, Prefetch, PrefetchExcl
			addr := memory.Addr(0x1000 + 32*r.Intn(lines) + 4*r.Intn(8))
			s = append(s, trace.Event{Kind: k, Addr: addr, Gap: uint32(r.Intn(5))})
		}
		tr.Streams[p] = s
	}
	return tr
}

// TestCoherenceFuzz runs randomized high-contention traces with the MESI
// invariant checker enabled, across protocols, victim caches, prefetch
// targets, cache geometries, fabrics, arbitration disciplines and online
// engines. The checker also cross-checks the snoop filter at every snoop:
// the duplicate tags must name exactly the caches a full scan finds holding
// the line, and the prefetch-buffer holders must equal a scan of every
// buffer, so the variants cover every snoop path (fetch, invalidation,
// update; data and victim caches; prefetch-buffer fills, hits, FIFO
// evictions and drops) and masks wider than one byte. This exact harness
// found a real grant-before-install ordering bug in the bus during
// development; it stays as a regression net.
func TestCoherenceFuzz(t *testing.T) {
	iterations := 300
	if testing.Short() {
		iterations = 50
	}
	tiny := memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
	variants := []struct {
		procs, lines int // trace shape: 3 processors on 3 lines unless set
		cfg          func(*sim.Config)
	}{
		{cfg: func(c *sim.Config) {}},
		{cfg: func(c *sim.Config) { c.Protocol = coherence.MSI }},
		{cfg: func(c *sim.Config) { c.VictimCacheLines = 4 }},
		{cfg: func(c *sim.Config) { c.PrefetchTarget = sim.PrefetchToBuffer; c.StreamBufferLines = 4 }},
		{cfg: func(c *sim.Config) { c.TransferCycles = 32 }},
		{cfg: func(c *sim.Config) { c.Geometry = tiny }},
		{cfg: func(c *sim.Config) { c.Protocol = coherence.Dragon }},
		{cfg: func(c *sim.Config) { c.Protocol = coherence.Dragon; c.VictimCacheLines = 2; c.Geometry = tiny }},
		{lines: 5, cfg: func(c *sim.Config) { c.Geometry = memory.Geometry{CacheSize: 4 * 32, LineSize: 32, Assoc: 2} }},
		{cfg: func(c *sim.Config) { c.Geometry = memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 0} }},
		{cfg: func(c *sim.Config) { c.Interconnect = interconnect.Config{Kind: interconnect.MultiBus, Links: 2} }},
		{cfg: func(c *sim.Config) { c.Interconnect.Discipline = bus.FCFS }},
		{cfg: func(c *sim.Config) { c.Online = prefetch.OnlineConfig{Kind: prefetch.Stride, Strategy: prefetch.PREF} }},
		{procs: 9, cfg: func(c *sim.Config) {}},
		// More lines than buffer slots, so the prefetch buffer evicts.
		{lines: 8, cfg: func(c *sim.Config) { c.PrefetchTarget = sim.PrefetchToBuffer; c.StreamBufferLines = 2 }},
	}
	for seed := 0; seed < iterations; seed++ {
		vi := seed % len(variants)
		v := variants[vi]
		tr := randomTrace(int64(seed), cmp.Or(v.procs, 3), 40, cmp.Or(v.lines, 3))
		c := sim.DefaultConfig()
		v.cfg(&c)
		c.CheckInvariants = true
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("seed %d variant %d: %v", seed, vi, p)
				}
			}()
			res, err := sim.RunSource(c, trace.FromTrace(tr))
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, vi, err)
			}
			// Conservation: every demand reference either hit or missed;
			// misses never exceed references.
			if res.Counters.TotalCPUMisses() > res.Counters.DemandRefs() {
				t.Fatalf("seed %d: more misses than references", seed)
			}
			// All processors must finish (Run errors otherwise), and the
			// execution time must cover the busiest processor.
			for i, p := range res.Procs {
				if p.FinishTime > res.Cycles {
					t.Fatalf("seed %d: proc %d finished after the run ended", seed, i)
				}
			}
		}()
	}
}

// TestLockFuzz replays randomized lock-heavy traces: every interleaving the
// simulator produces must respect mutual exclusion (enforced structurally
// by the FCFS lock table — this test asserts the run completes and the sync
// accounting stays sane under contention).
func TestLockFuzz(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		procs := 2 + r.Intn(4)
		tr := &trace.Trace{Streams: make([]trace.Stream, procs)}
		locks := []memory.Addr{0x8000, 0x8040, 0x8080}
		for p := range tr.Streams {
			var s trace.Stream
			for i := 0; i < 10; i++ {
				l := locks[r.Intn(len(locks))]
				s = append(s, trace.Event{Kind: trace.Lock, Addr: l, Gap: uint32(r.Intn(10))})
				for j := 0; j < r.Intn(4); j++ {
					s = append(s, trace.Event{Kind: trace.Read, Addr: memory.Addr(0x1000 + 32*r.Intn(8)), Gap: 2})
				}
				s = append(s, trace.Event{Kind: trace.Unlock, Addr: l, Gap: 1})
			}
			tr.Streams[p] = s
		}
		res, err := sim.RunSource(sim.DefaultConfig(), trace.FromTrace(tr))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Counters.SyncRefs != uint64(procs*20) {
			t.Fatalf("seed %d: sync refs %d, want %d", seed, res.Counters.SyncRefs, procs*20)
		}
	}
}

// TestBusFairnessStatistical drives symmetric processors and checks the
// round-robin arbiter spreads grants evenly: no processor's miss service
// should starve.
func TestBusFairnessStatistical(t *testing.T) {
	procs := 4
	tr := &trace.Trace{Streams: make([]trace.Stream, procs)}
	for p := range tr.Streams {
		var s trace.Stream
		// Each processor streams through its own lines: identical load.
		for i := 0; i < 300; i++ {
			s = append(s, trace.Event{Kind: trace.Read, Addr: memory.Addr(0x100000*(p+1) + 32*i), Gap: 1})
		}
		tr.Streams[p] = s
	}
	c := sim.DefaultConfig()
	c.TransferCycles = 32 // saturate so arbitration decides everything
	res, err := sim.RunSource(c, trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	var min, max uint64
	for i, p := range res.Procs {
		if i == 0 || p.FinishTime < min {
			min = p.FinishTime
		}
		if p.FinishTime > max {
			max = p.FinishTime
		}
	}
	if float64(max-min) > 0.02*float64(max) {
		t.Errorf("symmetric processors finished %d apart (total %d) — arbiter unfair", max-min, max)
	}
}
