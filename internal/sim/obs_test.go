package sim_test

import (
	"reflect"
	"testing"

	"busprefetch/internal/bus"
	"busprefetch/internal/coherence"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
)

// obsRun runs the trace twice — recorder off and recorder on — and fails if
// any reported number differs. It returns the recorded result.
func obsRun(t *testing.T, c sim.Config, opt obs.Options, streams ...trace.Stream) *sim.Result {
	t.Helper()
	tr := &trace.Trace{Name: "obs-test", Streams: streams}
	plain, err := sim.RunSource(c, trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	c.Obs = obs.New(len(streams), opt)
	rec, err := sim.RunSource(c, trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Everything except the recorder output itself must be identical.
	pc, rc := plain.Config, rec.Config
	pc.Obs, rc.Obs = nil, nil
	if !reflect.DeepEqual(pc, rc) || plain.Cycles != rec.Cycles ||
		plain.Counters != rec.Counters || plain.Bus != rec.Bus ||
		!reflect.DeepEqual(plain.Links, rec.Links) || !reflect.DeepEqual(plain.Online, rec.Online) ||
		!reflect.DeepEqual(plain.Procs, rec.Procs) {
		t.Fatalf("recording changed the result:\noff: %+v\non:  %+v", plain, rec)
	}
	return rec
}

// TestRecordingPreservesResults pins the recorder's core guarantee on
// adversarial high-contention traces: enabling it changes nothing. Every
// suite cell records, so it covers each seam a cell can vary: protocols,
// fabrics, disciplines, the victim cache, the prefetch buffer and an online
// engine.
func TestRecordingPreservesResults(t *testing.T) {
	machines := []struct {
		name string
		cfg  func(*sim.Config)
	}{
		{"default", func(c *sim.Config) {}},
		{"buffer", func(c *sim.Config) { c.PrefetchTarget = sim.PrefetchToBuffer; c.StreamBufferLines = 4 }},
		{"dragon", func(c *sim.Config) { c.Protocol = coherence.Dragon }},
		{"msi", func(c *sim.Config) { c.Protocol = coherence.MSI }},
		{"multibus2", func(c *sim.Config) { c.Interconnect = interconnect.Config{Kind: interconnect.MultiBus, Links: 2} }},
		{"fcfs", func(c *sim.Config) { c.Interconnect.Discipline = bus.FCFS }},
		// A two-line cache, so lines do fall into the victim cache.
		{"victim2", func(c *sim.Config) {
			c.VictimCacheLines = 2
			c.Geometry = memory.Geometry{CacheSize: 2 * 32, LineSize: 32, Assoc: 1}
		}},
		{"stride", func(c *sim.Config) { c.Online = prefetch.OnlineConfig{Kind: prefetch.Stride, Strategy: prefetch.PREF} }},
	}
	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			for seed := 0; seed < 10; seed++ {
				tr := randomTrace(int64(seed), 3, 60, 4)
				c := sim.DefaultConfig()
				m.cfg(&c)
				obsRun(t, c, obs.Options{Spans: seed%3 == 0}, tr.Streams...)
			}
		})
	}
}

func TestObsUsefulPrefetch(t *testing.T) {
	// A prefetch with a long gap before the use: the fill completes first,
	// so the lifetime is useful and the demand access hits.
	res := obsRun(t, cfg(), obs.Options{},
		trace.Stream{
			{Kind: trace.Prefetch, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 300},
		})
	if res.Obs == nil {
		t.Fatal("no summary on recorded run")
	}
	if res.Obs.Lifetimes["useful"] != 1 || res.Obs.LifetimesTotal() != 1 {
		t.Fatalf("lifetimes = %v, want exactly 1 useful", res.Obs.Lifetimes)
	}
	if res.Obs.IssueToFill.Samples != 1 || res.Obs.FillToUse.Samples != 1 {
		t.Fatalf("histograms = %d fill / %d use samples, want 1/1",
			res.Obs.IssueToFill.Samples, res.Obs.FillToUse.Samples)
	}
	// Uncontended single prefetch: issue -> fill is the full 100-cycle
	// latency (92 uncontended + 8 transfer).
	if got := res.Obs.IssueToFill.Mean(); got != 100 {
		t.Errorf("issue->fill mean = %v, want 100", got)
	}
	if res.Obs.Accuracy() != 1 || res.Obs.Timeliness() != 1 {
		t.Errorf("accuracy/timeliness = %v/%v, want 1/1", res.Obs.Accuracy(), res.Obs.Timeliness())
	}
}

func TestObsLatePrefetch(t *testing.T) {
	// The demand access arrives one cycle after the prefetch issues: it
	// merges with the in-flight fetch — a prefetch-in-progress miss, a late
	// lifetime.
	res := obsRun(t, cfg(), obs.Options{},
		trace.Stream{
			{Kind: trace.Prefetch, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000},
		})
	if res.Counters.CPUMisses[sim.PrefetchInProgress] != 1 {
		t.Fatalf("expected a prefetch-in-progress miss, got %+v", res.Counters.CPUMisses)
	}
	if res.Obs.Lifetimes["late"] != 1 || res.Obs.LifetimesTotal() != 1 {
		t.Fatalf("lifetimes = %v, want exactly 1 late", res.Obs.Lifetimes)
	}
	if res.Obs.Timeliness() != 0 {
		t.Errorf("timeliness = %v, want 0", res.Obs.Timeliness())
	}
}

func TestObsInvalidatedPrefetch(t *testing.T) {
	// Proc 0 prefetches a line; proc 1 writes it before proc 0's use: the
	// lifetime dies invalidated, and proc 0's eventual read misses as an
	// invalidation miss on a prefetched line.
	res := obsRun(t, cfg(), obs.Options{},
		trace.Stream{
			{Kind: trace.Prefetch, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 1000},
		},
		trace.Stream{
			{Kind: trace.Write, Addr: 0x1000, Gap: 200},
		})
	if res.Obs.Lifetimes["invalidated"] != 1 {
		t.Fatalf("lifetimes = %v, want 1 invalidated", res.Obs.Lifetimes)
	}
	if res.Counters.CPUMisses[sim.InvalPref] != 1 {
		t.Errorf("misses = %+v, want 1 invalidation-prefetched", res.Counters.CPUMisses)
	}
}

func TestObsEvictedPrefetch(t *testing.T) {
	// A two-line direct-mapped cache: the prefetched line is displaced by
	// two demand fills to its set before its use.
	c := cfg()
	c.Geometry.CacheSize = 2 * c.Geometry.LineSize
	line := memory.Addr(0x1000) // an even line number: set 0 of the 2-line cache
	res := obsRun(t, c, obs.Options{},
		trace.Stream{
			{Kind: trace.Prefetch, Addr: line},
			// Same set (2-line cache: every other line maps to set 0).
			{Kind: trace.Read, Addr: line + memory.Addr(2*c.Geometry.LineSize), Gap: 300},
			{Kind: trace.Read, Addr: line + memory.Addr(4*c.Geometry.LineSize), Gap: 300},
			{Kind: trace.Read, Addr: line, Gap: 300},
		})
	if res.Obs.Lifetimes["evicted"] != 1 {
		t.Fatalf("lifetimes = %v, want 1 evicted", res.Obs.Lifetimes)
	}
	if res.Counters.CPUMisses[sim.NonSharingPref] != 1 {
		t.Errorf("misses = %+v, want 1 non-sharing-prefetched", res.Counters.CPUMisses)
	}
}

func TestObsUnusedPrefetch(t *testing.T) {
	res := obsRun(t, cfg(), obs.Options{},
		trace.Stream{
			{Kind: trace.Prefetch, Addr: 0x1000},
			{Kind: trace.Read, Addr: 0x8000, Gap: 300},
		})
	if res.Obs.Lifetimes["unused"] != 1 {
		t.Fatalf("lifetimes = %v, want 1 unused", res.Obs.Lifetimes)
	}
	if res.Obs.Accuracy() != 0 {
		t.Errorf("accuracy = %v, want 0", res.Obs.Accuracy())
	}
}

func TestObsBufferLifetimes(t *testing.T) {
	// Buffer mode: a used buffered line is useful; a line dropped by a
	// remote write is invalidated.
	c := cfg()
	c.PrefetchTarget = sim.PrefetchToBuffer
	c.StreamBufferLines = 4
	res := obsRun(t, c, obs.Options{},
		trace.Stream{
			{Kind: trace.Prefetch, Addr: 0x1000},
			{Kind: trace.Prefetch, Addr: 0x2000},
			{Kind: trace.Read, Addr: 0x1000, Gap: 300},
			{Kind: trace.Read, Addr: 0x4000, Gap: 1000},
		},
		trace.Stream{
			{Kind: trace.Write, Addr: 0x2000, Gap: 600},
		})
	if res.Counters.StreamBufferHits != 1 || res.Counters.StreamBufferDrops != 1 {
		t.Fatalf("buffer hits/drops = %d/%d, want 1/1",
			res.Counters.StreamBufferHits, res.Counters.StreamBufferDrops)
	}
	if res.Obs.Lifetimes["useful"] != 1 || res.Obs.Lifetimes["invalidated"] != 1 {
		t.Fatalf("lifetimes = %v, want 1 useful + 1 invalidated", res.Obs.Lifetimes)
	}
}

func TestObsBusOccupancyMatchesStats(t *testing.T) {
	tr := randomTrace(7, 3, 60, 4)
	res := obsRun(t, cfg(), obs.Options{}, tr.Streams...)
	var cycles, grants uint64
	for _, c := range res.Obs.BusOps {
		cycles += c.Cycles
		grants += c.Grants
	}
	if cycles != res.Bus.BusyCycles {
		t.Errorf("observed bus cycles %d != Stats.BusyCycles %d", cycles, res.Bus.BusyCycles)
	}
	if grants != res.Bus.TotalOps() {
		t.Errorf("observed grants %d != Stats.TotalOps %d", grants, res.Bus.TotalOps())
	}
	fills := res.Obs.BusOps["fill/demand"].Grants + res.Obs.BusOps["fill/prefetch"].Grants
	if fills != res.Bus.DemandGrants+res.Bus.PrefetchGrants {
		t.Errorf("observed fills %d != Stats fills %d", fills, res.Bus.DemandGrants+res.Bus.PrefetchGrants)
	}
}

func TestObsWaitCyclesMatchProcStats(t *testing.T) {
	tr := randomTrace(11, 3, 60, 4)
	res := obsRun(t, cfg(), obs.Options{}, tr.Streams...)
	var mem, lock, barrier, buffer uint64
	for _, p := range res.Procs {
		mem += p.MemWait
		lock += p.LockWait
		barrier += p.BarrierWait
		buffer += p.BufferWait
	}
	got := res.Obs.PhaseCycles
	if got["mem-wait"] != mem || got["lock-wait"] != lock ||
		got["barrier-wait"] != barrier || got["buffer-wait"] != buffer {
		t.Errorf("phase cycles %v != proc stats mem=%d lock=%d barrier=%d buffer=%d",
			got, mem, lock, barrier, buffer)
	}
}

func TestObsLifetimesCoverAllPrefetchFetches(t *testing.T) {
	// Every prefetch that initiated a bus fetch must end in exactly one
	// lifetime class.
	for seed := 0; seed < 20; seed++ {
		tr := randomTrace(int64(100+seed), 3, 80, 4)
		c := cfg()
		res := obsRun(t, c, obs.Options{}, tr.Streams...)
		if got, want := res.Obs.LifetimesTotal(), res.Counters.PrefetchFetches; got != want {
			t.Fatalf("seed %d: %d lifetimes for %d prefetch fetches (%v)",
				seed, got, want, res.Obs.Lifetimes)
		}
	}
}
