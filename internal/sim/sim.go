package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"busprefetch/internal/bus"
	"busprefetch/internal/cache"
	"busprefetch/internal/check"
	"busprefetch/internal/coherence"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/names"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/trace"
)

// Fixed bus costs, in cycles of bus occupancy: the paper's invalidation,
// and the word update of the Dragon ablation.
const (
	// invalidateCycles is an address-only invalidation: a write upgrading a
	// Shared line.
	invalidateCycles = 2
	// updateCycles is a word-update broadcast under a write-update protocol
	// (Dragon): the address cycles of an invalidation plus a data-word cycle
	// and the snoop-ack turnaround that tells the writer whether any sharer
	// remains — more than an address-only invalidation, far less than a line
	// transfer.
	updateCycles = invalidateCycles + 2
)

// PrefetchTarget selects where prefetched lines land.
type PrefetchTarget int

const (
	// PrefetchToCache is the paper's choice: prefetches fill the data cache
	// itself, where they stay coherent (the cache snoops) but compete with
	// the current working set.
	PrefetchToCache PrefetchTarget = iota
	// PrefetchToBuffer models the alternative the paper rejects for
	// bus-based machines (§3.1): a separate FIFO prefetch buffer. It
	// eliminates conflicts with the working set, but the buffer does not
	// snoop, so shared data must not be prefetched into it — use
	// prefetch.Options.ExcludeWriteShared when annotating for this mode.
	// The simulator conservatively drops any buffered line whose address a
	// remote processor writes, modeling the guarantee the paper demands
	// ("unless it can be guaranteed not to be written during the interval").
	PrefetchToBuffer
)

var prefetchTargetNames = []string{"cache", "buffer"}

func (p PrefetchTarget) String() string {
	return names.Lookup("PrefetchTarget", prefetchTargetNames, int(p))
}

// Config sets the simulated machine's parameters. The zero value is not
// valid; use DefaultConfig.
type Config struct {
	// Label names the run in diagnostics — the sweep cell it simulates
	// ("mp3d/PREF/T=8"). It never affects simulation results; stall reports
	// and cancellation errors carry it so a failure inside a 200-cell sweep
	// identifies itself. Empty is fine.
	Label string
	// Geometry is the per-processor data cache shape.
	Geometry memory.Geometry
	// MemLatency is the total uncontended memory access latency in cycles
	// (the paper uses 100).
	MemLatency int
	// TransferCycles is the contended data-transfer portion of MemLatency
	// (the paper sweeps 4-32). Must be <= MemLatency.
	TransferCycles int
	// PrefetchBufferDepth is the number of outstanding prefetches a
	// processor may have (the paper uses 16).
	PrefetchBufferDepth int
	// Protocol selects Illinois (default), the MSI ablation, or the Dragon
	// write-update ablation.
	Protocol coherence.Kind
	// Interconnect selects the contended fabric's topology and service
	// discipline. The zero value is the paper's machine — one
	// priority-arbitrated split-transaction bus — and simulates
	// byte-identically to the pre-seam simulator.
	Interconnect interconnect.Config
	// VictimCacheLines, when non-zero, adds a small fully-associative
	// victim cache (Jouppi) behind each data cache — the fix the paper
	// suggests for the conflict misses prefetching introduces (§4.3).
	// Victim hits cost one extra cycle and no bus operation.
	VictimCacheLines int
	// PrefetchTarget selects cache prefetching (default) or the separate
	// non-snooping prefetch buffer of §3.1.
	PrefetchTarget PrefetchTarget
	// StreamBufferLines sizes the FIFO prefetch buffer when PrefetchTarget
	// is PrefetchToBuffer; zero selects 16 lines.
	StreamBufferLines int
	// Regions, when non-nil, attributes every CPU miss to the named data
	// structure containing its address (workload.Info.Regions supplies
	// them). Results appear in Result.RegionMisses, keyed by region name;
	// misses outside every region land under "(unattributed)".
	Regions []memory.Region
	// CheckInvariants enables per-transaction MESI invariant verification
	// (internal/check): the Illinois single-owner invariants are verified at
	// every bus grant — before snooping can repair a corrupted state — and
	// after every fill, and prefetch issue-buffer accounting is verified on
	// every completion. A violation aborts the run with a *check.Violation.
	// Slow; intended for tests.
	CheckInvariants bool
	// WatchdogCycles is the progress watchdog's threshold: the run aborts
	// with a *check.StallError when this many cycles pass without any
	// processor making progress (retiring an event, absorbing an instruction
	// gap, completing a fetch, or completing a queued writeback). Zero
	// selects the 2^20-cycle default. The
	// watchdog also trips when ~2^20 events dispatch at no cycle cost without
	// progress (livelock), and when the event queue drains with unfinished
	// processors (deadlock).
	WatchdogCycles uint64
	// Online selects an online prefetch engine (prefetch.Stride, Temporal
	// or Pointer) that trains on the demand stream during the run and
	// issues its own prefetch fetches, bounded by PrefetchBufferDepth. The
	// zero value (prefetch.Oracle) disables it: the simulator constructs
	// no engines and every online hook is behind a nil check, so
	// oracle-annotated runs are byte-identical to runs before the online
	// kernel existed.
	Online prefetch.OnlineConfig
	// Faults, when non-nil, injects runtime faults (dropped lock releases,
	// forced cache-line states) into the run. Used by tests to prove the
	// watchdog and the invariant checker catch real failures; nil for normal
	// simulation.
	Faults *check.Plan
	// Obs, when non-nil, records the run's observability events — processor
	// phase spans, bus occupancy, full prefetch lifetimes — into the
	// recorder, and Result.Obs carries the reduced summary. Recording only
	// observes times the simulator already computed, so it never changes a
	// reported number; nil (the default) disables it at zero cost.
	Obs *obs.Recorder
}

// DefaultConfig returns the paper's machine: 32 KB direct-mapped caches with
// 32-byte lines, 100-cycle memory latency with an 8-cycle data transfer, a
// 2-cycle invalidation operation and a 16-deep prefetch buffer.
func DefaultConfig() Config {
	return Config{
		Geometry:            memory.DefaultGeometry(),
		MemLatency:          100,
		TransferCycles:      8,
		PrefetchBufferDepth: 16,
	}
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch {
	case c.MemLatency <= 0:
		return fmt.Errorf("sim: memory latency %d", c.MemLatency)
	case c.TransferCycles <= 0 || c.TransferCycles > c.MemLatency:
		return fmt.Errorf("sim: transfer cycles %d outside (0, %d]", c.TransferCycles, c.MemLatency)
	case c.PrefetchBufferDepth <= 0:
		return fmt.Errorf("sim: prefetch buffer depth %d", c.PrefetchBufferDepth)
	case c.Geometry.WordsPerLine() > 64:
		return fmt.Errorf("sim: %d words per line exceeds the 64-word tracking limit", c.Geometry.WordsPerLine())
	case c.VictimCacheLines < 0:
		return fmt.Errorf("sim: negative victim cache size %d", c.VictimCacheLines)
	case c.StreamBufferLines < 0:
		return fmt.Errorf("sim: negative stream buffer size %d", c.StreamBufferLines)
	case !c.Protocol.Valid():
		return fmt.Errorf("sim: unknown protocol %d", int(c.Protocol))
	case c.PrefetchTarget != PrefetchToCache && c.PrefetchTarget != PrefetchToBuffer:
		return fmt.Errorf("sim: unknown prefetch target %d", int(c.PrefetchTarget))
	}
	if err := c.Interconnect.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Online.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// MissClass is a CPU-miss category of the paper's Figure 3.
type MissClass int

const (
	// NonSharingNotPref: first use, or replaced, and no prefetch covered it.
	NonSharingNotPref MissClass = iota
	// NonSharingPref: prefetched, but replaced before use.
	NonSharingPref
	// InvalNotPref: invalidated by another processor; not prefetched.
	InvalNotPref
	// InvalPref: prefetched, then invalidated before use.
	InvalPref
	// PrefetchInProgress: the prefetch reached the bus but had not completed
	// when the CPU asked for the data.
	PrefetchInProgress
	// NumMissClasses is the number of categories.
	NumMissClasses
)

var missClassNames = []string{
	"non-sharing, not pref'd",
	"non-sharing, pref'd",
	"invalidation, not pref'd",
	"invalidation, pref'd",
	"prefetch in progress",
}

func (m MissClass) String() string {
	return names.Lookup("MissClass", missClassNames, int(m))
}

// Counters aggregates whole-run event counts.
type Counters struct {
	// Reads and Writes are demand references, including the exclusive
	// accesses performed by lock acquire/release.
	Reads, Writes uint64
	// SyncRefs is the subset of Writes issued by lock operations.
	SyncRefs uint64
	// CPUMisses is the per-class demand-miss count.
	CPUMisses [NumMissClasses]uint64
	// FalseSharing counts invalidation misses whose invalidating write
	// touched a word the local processor had not accessed.
	FalseSharing uint64
	// PrefetchesIssued counts executed prefetch instructions.
	PrefetchesIssued uint64
	// PrefetchCacheHits counts prefetches that found the line already valid
	// (no bus operation, per the paper's EXCL description).
	PrefetchCacheHits uint64
	// PrefetchMerged counts prefetches dropped because the line was already
	// being fetched.
	PrefetchMerged uint64
	// PrefetchFetches counts prefetches that initiated a bus fetch.
	PrefetchFetches uint64
	// UpgradeRetries counts write upgrades that lost a coherence race and
	// re-executed as misses.
	UpgradeRetries uint64
	// UpdatesSent counts word-update broadcasts put on the bus by writes to
	// shared lines — the write-update analogue of the invalidation, and
	// always zero under a write-invalidate protocol.
	UpdatesSent uint64
	// UpdatesReceived counts remote cache copies refreshed in place by those
	// broadcasts (one broadcast may refresh several sharers).
	UpdatesReceived uint64
	// VictimHits counts demand misses satisfied by the victim cache
	// (one-cycle penalty, no bus operation).
	VictimHits uint64
	// StreamBufferHits counts demand misses satisfied by the prefetch
	// buffer in PrefetchToBuffer mode.
	StreamBufferHits uint64
	// StreamBufferDrops counts buffered lines discarded because a remote
	// processor wrote them (the non-snooping buffer's correctness guard).
	StreamBufferDrops uint64
	// OnlineEmitted counts candidate lines the online engines proposed.
	// Always zero without Config.Online; every emitted candidate lands in
	// exactly one of the three counters below.
	OnlineEmitted uint64
	// OnlineIssued counts candidates that initiated a bus fetch (these are
	// also counted in PrefetchFetches, like any other prefetch fetch).
	OnlineIssued uint64
	// OnlineFiltered counts candidates dropped because the line was
	// already resident, buffered, or being fetched.
	OnlineFiltered uint64
	// OnlineDropped counts candidates dropped because the issue buffer was
	// full — unlike a prefetch instruction, an online engine never stalls
	// the CPU for a slot.
	OnlineDropped uint64
}

// DemandRefs returns the demand-reference count (the miss-rate denominator).
func (c *Counters) DemandRefs() uint64 { return c.Reads + c.Writes }

// countRef counts one demand reference; isSync marks a lock operation's.
func (c *Counters) countRef(isWrite, isSync bool) {
	if isWrite {
		c.Writes++
	} else {
		c.Reads++
	}
	if isSync {
		c.SyncRefs++
	}
}

// TotalCPUMisses returns all demand misses including prefetch-in-progress.
func (c *Counters) TotalCPUMisses() uint64 {
	var n uint64
	for _, v := range c.CPUMisses {
		n += v
	}
	return n
}

// AdjustedCPUMisses returns demand misses excluding prefetch-in-progress
// (the paper's adjusted CPU miss rate).
func (c *Counters) AdjustedCPUMisses() uint64 {
	return c.TotalCPUMisses() - c.CPUMisses[PrefetchInProgress]
}

// InvalidationMisses returns demand misses caused by invalidation.
func (c *Counters) InvalidationMisses() uint64 {
	return c.CPUMisses[InvalNotPref] + c.CPUMisses[InvalPref]
}

// TotalMisses returns all accesses (demand and prefetch) that initiated a
// memory fetch — the paper's total-miss metric, "indicative of the demand at
// the bottleneck component of the machine". Prefetch-in-progress misses do
// not initiate a second fetch and are excluded.
func (c *Counters) TotalMisses() uint64 {
	return c.AdjustedCPUMisses() + c.PrefetchFetches
}

// ProcStats reports one processor's time breakdown.
type ProcStats struct {
	// BusyCycles counts instruction cycles plus completed access cycles.
	BusyCycles uint64
	// MemWait, LockWait, BarrierWait and BufferWait are stall cycles by
	// cause. MemWait includes demand misses, upgrades and prefetch-in-
	// progress stalls.
	MemWait, LockWait, BarrierWait, BufferWait uint64
	// FinishTime is when the processor retired its last event.
	FinishTime uint64
}

// Utilization returns the processor's busy fraction of the full run.
func (p ProcStats) Utilization(total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(p.BusyCycles) / float64(total)
}

// RegionMisses attributes one data structure's share of the CPU misses.
type RegionMisses struct {
	// CPUMisses counts all demand misses inside the region, by class.
	CPUMisses [NumMissClasses]uint64
	// FalseSharing counts the false-sharing subset.
	FalseSharing uint64
}

// Total returns all CPU misses attributed to the region.
func (r RegionMisses) Total() uint64 {
	var n uint64
	for _, v := range r.CPUMisses {
		n += v
	}
	return n
}

// Result is the outcome of one simulation.
type Result struct {
	Config Config
	// Cycles is the parallel execution time: the latest processor finish.
	Cycles uint64
	// Counters aggregates event counts across processors.
	Counters Counters
	// Bus is the contended-resource traffic summary, summed across every
	// interconnect link.
	Bus bus.Stats
	// Links is the per-link traffic breakdown when the interconnect has more
	// than one link (nil on the paper's single bus, so single-bus results —
	// and their checkpoints and goldens — are unchanged by the seam).
	Links []bus.Stats
	// Procs is the per-processor breakdown.
	Procs []ProcStats
	// RegionMisses attributes CPU misses to data structures when
	// Config.Regions was supplied (nil otherwise).
	RegionMisses map[string]RegionMisses
	// Obs is the observability summary when Config.Obs was set (nil
	// otherwise).
	Obs *obs.Summary
	// Online is the summed per-processor engine bookkeeping when
	// Config.Online selected an engine (nil otherwise).
	Online *prefetch.EngineStats
}

// CPUMissRate returns CPU misses (including prefetch-in-progress) per demand
// reference.
func (r *Result) CPUMissRate() float64 {
	return rate(r.Counters.TotalCPUMisses(), r.Counters.DemandRefs())
}

// AdjustedCPUMissRate excludes prefetch-in-progress misses.
func (r *Result) AdjustedCPUMissRate() float64 {
	return rate(r.Counters.AdjustedCPUMisses(), r.Counters.DemandRefs())
}

// TotalMissRate returns all memory fetches per demand reference.
func (r *Result) TotalMissRate() float64 {
	return rate(r.Counters.TotalMisses(), r.Counters.DemandRefs())
}

// InvalidationMissRate returns invalidation misses per demand reference.
func (r *Result) InvalidationMissRate() float64 {
	return rate(r.Counters.InvalidationMisses(), r.Counters.DemandRefs())
}

// FalseSharingMissRate returns false-sharing misses per demand reference.
func (r *Result) FalseSharingMissRate() float64 {
	return rate(r.Counters.FalseSharing, r.Counters.DemandRefs())
}

// UpdateRate returns word-update broadcasts per demand reference — the
// sustained bus cost a write-update protocol pays in place of invalidation
// misses. Always zero under a write-invalidate protocol.
func (r *Result) UpdateRate() float64 {
	return rate(r.Counters.UpdatesSent, r.Counters.DemandRefs())
}

// MissClassRate returns the given class's misses per demand reference.
func (r *Result) MissClassRate(m MissClass) float64 {
	return rate(r.Counters.CPUMisses[m], r.Counters.DemandRefs())
}

// BusUtilization returns the fraction of the run the contended resource was
// in use. With a multi-link interconnect it is the mean per-link utilization
// (aggregate busy cycles over link-count × run cycles), so a half-loaded
// dual bus reads 0.5, not 1.0.
func (r *Result) BusUtilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	capacity := float64(r.Cycles)
	if len(r.Links) > 1 {
		capacity *= float64(len(r.Links))
	}
	u := float64(r.Bus.BusyCycles) / capacity
	if u > 1 {
		u = 1 // rounding guard: the bus can be busy through the final cycle
	}
	return u
}

// WaitBreakdown sums each stall cause across processors and returns the
// fractions of total processor-cycles (Cycles * procs) spent busy, waiting
// on memory, waiting on locks, waiting at barriers, and waiting for a
// prefetch-buffer slot.
func (r *Result) WaitBreakdown() (busy, mem, lock, barrier, buffer float64) {
	if r.Cycles == 0 || len(r.Procs) == 0 {
		return
	}
	total := float64(r.Cycles) * float64(len(r.Procs))
	var b, m, l, ba, bu uint64
	for _, p := range r.Procs {
		b += p.BusyCycles
		m += p.MemWait
		l += p.LockWait
		ba += p.BarrierWait
		bu += p.BufferWait
	}
	return float64(b) / total, float64(m) / total, float64(l) / total, float64(ba) / total, float64(bu) / total
}

// MeanProcUtilization returns the average processor busy fraction.
func (r *Result) MeanProcUtilization() float64 {
	if len(r.Procs) == 0 || r.Cycles == 0 {
		return 0
	}
	var s float64
	for _, p := range r.Procs {
		s += p.Utilization(r.Cycles)
	}
	return s / float64(len(r.Procs))
}

func rate(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// RunSource simulates a streaming trace.Source on the configured machine
// and returns the result. Events are consumed chunk by chunk as each
// processor's stream is drained — nothing is materialized — so a
// workload source (or an annotated wrapping of one) simulates in memory
// bounded by a few chunks per processor. Chunking never affects the
// result, because Next blocks until events are available and simulated
// time comes only from event content; a materialized trace replays
// through trace.FromTrace.
//
// The trace's structural rules (known event kinds, matched lock nesting,
// identical barrier sequences across processors; see trace.Validate) are
// checked inline as events retire, and a violation aborts the run with a
// validation error. A deadlocked or hung replay is reported as a
// *check.StallError.
func RunSource(cfg Config, src trace.Source) (*Result, error) {
	return RunSourceContext(context.Background(), cfg, src)
}

// RunSourceContext is RunSource under a context: cancelling ctx (Ctrl-C,
// a per-cell deadline) aborts the replay at the next event-dispatch
// boundary with an error wrapping ctx.Err(). The simulator is
// single-goroutine and simply stops dispatching; the cancellation check
// is polled every cancelPollEvents dispatches, so an enabled context
// costs a counter increment per event on the hot path, and even a run
// wedged in progress-bearing work (a livelock the watchdog cannot
// distinguish from real work) terminates promptly once ctx fires.
//
// Each processor's stream is drained through trace.ReadAhead, so its
// producing stages run one chunk ahead of the simulator on a goroutine
// per processor. All iterators are closed before it returns, on every
// path, including a producer's panic, which is raised again on the
// caller's goroutine; Close waits for each stream's sequence to return,
// so no producer outlives the run.
func RunSourceContext(ctx context.Context, cfg Config, src trace.Source) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkProcs(src.Procs()); err != nil {
		return nil, err
	}
	s, err := newSimulator(cfg, src.Procs())
	if err != nil {
		return nil, err
	}
	iters := make([]trace.Iterator, len(s.procs))
	defer func() {
		for _, it := range iters {
			if it != nil {
				it.Close()
			}
		}
	}()
	for i, p := range s.procs {
		iters[i] = trace.ReadAhead(src, i)
		p.it = iters[i]
	}
	s.ctx = ctx
	return s.run()
}

func checkProcs(n int) error {
	if n == 0 {
		return fmt.Errorf("sim: trace has no processors")
	}
	if n > 64 {
		return fmt.Errorf("sim: %d processors exceeds the 64-processor limit", n)
	}
	return nil
}

// protoTables is the active coherence protocol's state machine flattened
// into dense per-state arrays at construction. Protocol implementations are
// stateless and total over the cache.States, so every hot-path transition —
// snoop responses applied per resident copy per bus grant, the write-hit
// action consulted per demand write, fill-state selection per completing
// fetch — becomes an array index instead of an interface call (and, for the
// snoops, instead of a per-call method-value allocation).
type protoTables struct {
	snoopRead   [cache.NumStates]cache.State
	snoopWrite  [cache.NumStates]cache.State
	snoopUpdate [cache.NumStates]cache.State
	// writeAct and writeNext tabulate WriteHit: the bus action a write
	// hitting state st owes, and (for WriteSilent) the state it assumes.
	writeAct  [cache.NumStates]coherence.WriteAction
	writeNext [cache.NumStates]cache.State
	// fill tabulates FillState over the three Fill booleans; index with
	// fillIndex.
	fill [8]cache.State
	// writer tabulates WriterState[action][sharers]; only the WriteUpgrade
	// and WriteUpdate rows are ever consulted.
	writer [3][2]cache.State
}

func buildProtoTables(p coherence.Protocol) protoTables {
	var t protoTables
	for st := cache.State(0); st < cache.NumStates; st++ {
		t.snoopRead[st] = p.SnoopRead(st)
		t.snoopWrite[st] = p.SnoopWrite(st)
		t.snoopUpdate[st] = p.SnoopUpdate(st)
		t.writeAct[st], t.writeNext[st] = p.WriteHit(st)
	}
	for i := range t.fill {
		t.fill[i] = p.FillState(coherence.Fill{Excl: i&4 != 0, IsPrefetch: i&2 != 0, Sharers: i&1 != 0})
	}
	for _, act := range []coherence.WriteAction{coherence.WriteUpgrade, coherence.WriteUpdate} {
		t.writer[act][0] = p.WriterState(act, false)
		t.writer[act][1] = p.WriterState(act, true)
	}
	return t
}

// fillIndex maps a coherence.Fill to its protoTables.fill slot.
func fillIndex(excl, isPrefetch, sharers bool) int {
	i := 0
	if excl {
		i |= 4
	}
	if isPrefetch {
		i |= 2
	}
	if sharers {
		i |= 1
	}
	return i
}

// simulator owns the machine state for one run.
type simulator struct {
	cfg Config
	eng *engine
	// ic is the contended fabric (Config.Interconnect); the default is the
	// paper's single bus.
	ic    *interconnect.Fabric
	procs []*proc
	// tags and victimTags are the duplicate tags of the processors' data
	// and victim caches (victimTags is nil without a victim cache): the
	// snoop filter that lets a bus operation visit only the caches holding
	// a valid copy of its line.
	tags, victimTags *cache.Tags
	// Lock and barrier state lives in dense slices; lockIdx/barrIdx resolve
	// an object's address to its slot, registered lazily on first use
	// (lockSlot/barrSlot). Lazy registration lets a replay run without a
	// whole-trace pre-scan, and slot order never affects results — every
	// access goes through the map.
	locks   []lockState
	barrs   []barrierState
	lockIdx map[memory.Addr]int32
	barrIdx map[memory.Addr]int32
	// barLog and minEndBarriers are the inline barrier-sequence check
	// (trace.Validate's rule, enforced on the fly because a source cannot
	// be pre-validated). barLog holds the k-th barrier value of whichever
	// processor arrived there first, which every other processor's k-th
	// barrier must match; minEndBarriers is the fewest barriers any
	// finished processor passed, which no processor may exceed.
	barLog         []memory.Addr
	minEndBarriers int
	c              Counters
	geom           memory.Geometry
	uncont         uint64 // MemLatency - TransferCycles

	// proto is the coherence state machine, tab its transitions flattened
	// into dense tables (the form every hot path consults), and rule its
	// legality predicate.
	proto coherence.Protocol
	tab   protoTables
	rule  check.LineRule

	// rec is the observability recorder (Config.Obs); nil when disabled.
	// Every use is behind a nil check so a disabled run allocates nothing.
	rec *obs.Recorder

	// ctx, when non-nil, is polled every cancelPollEvents event dispatches;
	// once it is done the run aborts with an error wrapping ctx.Err().
	ctx       context.Context
	pollCount uint64

	// err is the first fatal condition (invariant violation, bus misuse,
	// watchdog trip, context cancellation) seen during the run; the engine
	// aborts on it.
	err error
	// progress counts retired work across all processors; the watchdog in
	// watch trips when it stops advancing.
	progress            uint64
	lastProgress        uint64
	lastProgressAt      uint64
	eventsSinceProgress uint64
	watchdogCycles      uint64

	// regions, sorted by base address, attributes misses to data
	// structures. regionTallies accumulates per region index — one extra
	// trailing slot catches unattributed misses — and is folded into the
	// name-keyed result map once at the end of the run, so the per-miss cost
	// is a binary search and an array index, not a string-keyed map access.
	regions       []memory.Region
	regionTallies []RegionMisses
}

// fail records the first fatal error; the watch hook aborts the engine on it
// before the next event dispatches.
func (s *simulator) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// defaultWatchdogCycles is the no-progress threshold when Config leaves
// WatchdogCycles zero. Instruction gaps cannot false-positive it: a gap of
// any size is absorbed in a single event that itself counts as progress.
const defaultWatchdogCycles = 1 << 20

// watchdogEventLimit bounds events dispatched without progress, catching
// livelocks that churn same-cycle events without advancing time.
const watchdogEventLimit = 1 << 20

// cancelPollEvents is how many event dispatches pass between context polls:
// frequent enough that cancellation lands within microseconds of real time,
// rare enough that the poll's synchronization cost vanishes from the hot
// path (the kernel dispatches ~10M events/s).
const cancelPollEvents = 1024

// watch runs before every event dispatch: it aborts the run on the first
// recorded error, polls the context, and implements the progress watchdog.
func (s *simulator) watch(now uint64) error {
	if s.err != nil {
		return s.err
	}
	if s.pollCount++; s.pollCount%cancelPollEvents == 0 && s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			if s.cfg.Label != "" {
				s.err = fmt.Errorf("sim: %s: run cancelled at cycle %d: %w", s.cfg.Label, now, err)
			} else {
				s.err = fmt.Errorf("sim: run cancelled at cycle %d: %w", now, err)
			}
			return s.err
		}
	}
	if s.progress != s.lastProgress {
		s.lastProgress = s.progress
		s.lastProgressAt = now
		s.eventsSinceProgress = 0
		return nil
	}
	s.eventsSinceProgress++
	if stalled := now - s.lastProgressAt; stalled > s.watchdogCycles {
		s.err = s.stallError(now, fmt.Sprintf("no progress for %d cycles", stalled))
		return s.err
	}
	if s.eventsSinceProgress > watchdogEventLimit {
		s.err = s.stallError(now, fmt.Sprintf("%d events dispatched without progress (livelock)", s.eventsSinceProgress))
		return s.err
	}
	return nil
}

// stallError diagnoses every unfinished processor: what it waits on, and for
// locks, who holds the contended lock.
func (s *simulator) stallError(now uint64, reason string) *check.StallError {
	e := &check.StallError{Label: s.cfg.Label, Cycle: now, Progress: s.progress, Reason: reason}
	for _, p := range s.procs {
		if p.finished {
			continue
		}
		st := check.ProcStall{Proc: p.id, Event: p.base + p.pc, Events: p.base + len(p.stream), Wait: check.WaitUnknown, Holder: -1}
		if p.waitingForSlot {
			st.Wait = check.WaitBufferSlot
		}
		if st.Wait == check.WaitUnknown {
			for _, inf := range p.inflight {
				if inf.cpuWaiting {
					st.Wait = check.WaitMemory
					st.Object, st.HasObject = inf.la, true
					break
				}
			}
		}
		if st.Wait == check.WaitUnknown {
			for i := range s.locks {
				ls := &s.locks[i]
				for _, q := range ls.queue {
					if q == p.id {
						st.Wait = check.WaitLock
						st.Object, st.HasObject = ls.addr, true
						st.Holder = ls.holder
					}
				}
			}
		}
		if st.Wait == check.WaitUnknown {
			for i := range s.barrs {
				bs := &s.barrs[i]
				for _, w := range bs.waiting {
					if w == p.id {
						st.Wait = check.WaitBarrier
						st.Object, st.HasObject = bs.addr, true
					}
				}
			}
		}
		e.Stalls = append(e.Stalls, st)
	}
	return e
}

// regionIndex returns the index of the region containing a, or len(regions)
// — the unattributed slot. Regions are sorted by base; binary search.
func (s *simulator) regionIndex(a memory.Addr) int {
	lo, hi := 0, len(s.regions)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r := s.regions[mid]
		switch {
		case a < r.Base:
			hi = mid - 1
		case a >= r.End():
			lo = mid + 1
		default:
			return mid
		}
	}
	return len(s.regions)
}

// attributeMiss records a classified CPU miss against its data structure.
func (s *simulator) attributeMiss(a memory.Addr, class MissClass, falseSharing bool) {
	if s.regionTallies == nil {
		return
	}
	rm := &s.regionTallies[s.regionIndex(a)]
	rm.CPUMisses[class]++
	if falseSharing {
		rm.FalseSharing++
	}
}

type lockState struct {
	addr   memory.Addr
	holder int // processor id, or -1
	queue  []int
}

type barrierState struct {
	addr       memory.Addr
	arrived    int
	maxArrival uint64
	waiting    []int
}

func newSimulator(cfg Config, nprocs int) (*simulator, error) {
	s := &simulator{
		cfg:            cfg,
		eng:            &engine{},
		geom:           cfg.Geometry,
		uncont:         uint64(cfg.MemLatency - cfg.TransferCycles),
		proto:          coherence.ByKind(cfg.Protocol),
		watchdogCycles: cfg.WatchdogCycles,
		minEndBarriers: math.MaxInt,
	}
	s.tab = buildProtoTables(s.proto)
	s.rule = s.proto.Invariant()
	if s.watchdogCycles == 0 {
		s.watchdogCycles = defaultWatchdogCycles
	}
	if len(cfg.Regions) > 0 {
		s.regions = append([]memory.Region(nil), cfg.Regions...)
		sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
		s.regionTallies = make([]RegionMisses, len(s.regions)+1)
	}
	s.lockIdx = make(map[memory.Addr]int32)
	s.barrIdx = make(map[memory.Addr]int32)
	// Route on line numbers, not raw line addresses: dropping the offset bits
	// interleaves consecutive lines across links.
	routeShift := uint(bits.TrailingZeros64(uint64(cfg.Geometry.LineSize)))
	ic, err := interconnect.New(cfg.Interconnect, routeShift, s.eng, nprocs)
	if err != nil {
		return nil, err
	}
	s.ic = ic
	if cfg.Obs != nil {
		s.rec = cfg.Obs
		ic.SetObserver(s.rec.BusOccupied)
	}
	s.tags = cache.NewTags(cfg.Geometry, nprocs)
	if n := cfg.VictimCacheLines; n > 0 {
		s.victimTags = cache.NewTags(memory.Geometry{
			CacheSize: n * cfg.Geometry.LineSize,
			LineSize:  cfg.Geometry.LineSize,
			Assoc:     0,
		}, nprocs)
	}
	s.procs = make([]*proc, nprocs)
	for i := range s.procs {
		s.procs[i] = newProc(s, i)
	}
	return s, nil
}

// lockSlot returns the dense-slice index of lock a, registering it on
// first use.
func (s *simulator) lockSlot(a memory.Addr) int32 {
	if i, ok := s.lockIdx[a]; ok {
		return i
	}
	i := int32(len(s.locks))
	s.lockIdx[a] = i
	s.locks = append(s.locks, lockState{addr: a, holder: -1})
	return i
}

// barrSlot returns the dense-slice index of barrier id, registering it
// on first use.
func (s *simulator) barrSlot(id memory.Addr) int32 {
	if i, ok := s.barrIdx[id]; ok {
		return i
	}
	i := int32(len(s.barrs))
	s.barrIdx[id] = i
	s.barrs = append(s.barrs, barrierState{addr: id})
	return i
}

func (s *simulator) run() (*Result, error) {
	for _, p := range s.procs {
		s.eng.At(0, p.runFn)
	}
	if err := s.eng.run(s.watch); err != nil {
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	res := &Result{Config: s.cfg, Counters: s.c, Bus: s.ic.Stats(), Procs: make([]ProcStats, len(s.procs))}
	if s.ic.Links() > 1 {
		res.Links = s.ic.LinkStats()
	}
	if s.regionTallies != nil {
		// Fold the dense per-region tallies into the name-keyed result map:
		// regions sharing a name merge, and regions that attracted no misses
		// are omitted (a name appears only once a miss lands in it, exactly
		// as the lazily populated map used to behave).
		res.RegionMisses = make(map[string]RegionMisses, len(s.regions))
		for i := range s.regionTallies {
			rm := s.regionTallies[i]
			if rm.Total() == 0 {
				continue
			}
			name := "(unattributed)"
			if i < len(s.regions) {
				name = s.regions[i].Name
			}
			agg := res.RegionMisses[name]
			for c := range agg.CPUMisses {
				agg.CPUMisses[c] += rm.CPUMisses[c]
			}
			agg.FalseSharing += rm.FalseSharing
			res.RegionMisses[name] = agg
		}
	}
	for i, p := range s.procs {
		if !p.finished {
			// The event queue drained with this processor still blocked — the
			// classic deadlock (a lock release that never happened, a barrier
			// a peer never reached). Report every blocked processor.
			return nil, s.stallError(s.eng.now, "event queue drained with unfinished processors")
		}
		res.Procs[i] = p.stats
		if p.stats.FinishTime > res.Cycles {
			res.Cycles = p.stats.FinishTime
		}
	}
	if s.rec != nil {
		for _, p := range s.procs {
			s.rec.ProcFinished(p.id, p.stats.FinishTime)
		}
		s.rec.Finish(res.Cycles)
		res.Obs = s.rec.Summary()
	}
	if s.cfg.Online.Enabled() {
		var agg prefetch.EngineStats
		for _, p := range s.procs {
			agg.Add(p.online.Stats())
		}
		res.Online = &agg
	}
	return res, nil
}

// snoopers returns the processors other than requester that a bus
// operation on line la must visit, as a bit set over processor ids. The
// duplicate tags name the processors whose data or victim cache holds a
// valid copy of la; a snoop changes nothing in any other cache, so iterating
// the set in ascending id order is the full loop over s.procs with the no-op
// visits left out. The non-snooping prefetch buffer is the exception: any
// remote bus operation drops a buffered copy, so in PrefetchToBuffer mode
// every other processor is visited.
func (s *simulator) snoopers(now uint64, requester int, la memory.Addr) uint64 {
	if s.cfg.CheckInvariants {
		s.checkSnoopFilter(now, la)
	}
	var mask uint64
	if s.cfg.PrefetchTarget == PrefetchToBuffer {
		mask = ^uint64(0) >> (64 - len(s.procs))
	} else {
		mask = s.tags.Holders(la)
		if s.victimTags != nil {
			mask |= s.victimTags.Holders(la)
		}
	}
	return mask &^ (1 << uint(requester))
}

// snoopFetch performs the coherence actions of a fetch at its bus grant time
// and reports whether any other cache held a valid copy (which the protocol's
// FillState consults). Remote copies take the protocol's SnoopRead or — for
// exclusive fetches — SnoopWrite transition, recording word for false-sharing
// analysis when a copy is invalidated.
func (s *simulator) snoopFetch(now uint64, requester int, la memory.Addr, excl bool, word int) (sharers bool) {
	next, w := &s.tab.snoopRead, int(cache.NoInvalidatingWord)
	if excl {
		next, w = &s.tab.snoopWrite, word
	}
	for m := s.snoopers(now, requester, la); m != 0; m &= m - 1 {
		p := s.procs[bits.TrailingZeros64(m)]
		if p.cache.SnoopTable(la, w, next) != cache.Invalid {
			sharers = true
			if s.rec != nil {
				s.observeSnoopKill(now, p, la)
			}
		}
		if p.victim != nil && p.victim.SnoopTable(la, w, next) != cache.Invalid {
			sharers = true
		}
		// The non-snooping prefetch buffer cannot track the line once another
		// processor fetches it — even a read fill may enter private-clean and
		// be written silently later — so any remote fill drops the entry.
		p.dropBuffered(la, now)
	}
	return sharers
}

// observeSnoopKill reports to the recorder a snoop that just invalidated a
// prefetched-but-unused copy — the lifetime the taxonomy scores against
// sharing. Callers guard with s.rec != nil so the disabled path pays a
// branch, not a call; the re-lookup runs only with recording enabled and
// mutates nothing.
func (s *simulator) observeSnoopKill(now uint64, p *proc, la memory.Addr) {
	if l := p.cache.Lookup(la); l != nil && !l.State.Valid() && l.PrefetchedUnused {
		s.rec.PrefetchInvalidated(p.id, uint64(la), now)
	}
}

// snoopInvalidate broadcasts an upgrade's invalidation: remote copies take
// the protocol's SnoopWrite transition.
func (s *simulator) snoopInvalidate(now uint64, requester int, la memory.Addr, word int) {
	for m := s.snoopers(now, requester, la); m != 0; m &= m - 1 {
		p := s.procs[bits.TrailingZeros64(m)]
		if p.cache.SnoopTable(la, word, &s.tab.snoopWrite) != cache.Invalid {
			if s.rec != nil {
				s.observeSnoopKill(now, p, la)
			}
		}
		if p.victim != nil {
			p.victim.SnoopTable(la, word, &s.tab.snoopWrite)
		}
		p.dropBuffered(la, now)
	}
}

// snoopUpdate broadcasts a word-update: every remote valid copy absorbs the
// written word via the protocol's SnoopUpdate transition and stays resident.
// It reports whether any remote data cache still holds the line, which
// decides whether the writer remains the update-owner (more broadcasts to
// come) or takes the line exclusive. The non-snooping prefetch buffer still
// drops its entry — it has no way to fold the new word in.
func (s *simulator) snoopUpdate(now uint64, requester int, la memory.Addr) (sharers bool) {
	for m := s.snoopers(now, requester, la); m != 0; m &= m - 1 {
		p := s.procs[bits.TrailingZeros64(m)]
		if p.cache.SnoopTable(la, int(cache.NoInvalidatingWord), &s.tab.snoopUpdate) != cache.Invalid {
			sharers = true
			s.c.UpdatesReceived++
		}
		if p.victim != nil && p.victim.SnoopTable(la, int(cache.NoInvalidatingWord), &s.tab.snoopUpdate) != cache.Invalid {
			sharers = true
		}
		p.dropBuffered(la, now)
	}
	return sharers
}

// releaseLock hands the lock to the next FCFS waiter, if any, at time now.
func (s *simulator) releaseLock(a memory.Addr, now uint64) {
	ls := &s.locks[s.lockSlot(a)]
	if len(ls.queue) == 0 {
		ls.holder = -1
		return
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.holder = next
	p := s.procs[next]
	p.stats.LockWait += now - p.waitStart
	if s.rec != nil {
		s.rec.Wait(p.id, obs.PhaseLockWait, p.waitStart, now)
	}
	s.eng.At(now, p.runFn)
}

// arriveBarrier registers proc p at barrier id. Every participant — the last
// arrival included — resumes at the latest arrival time, since processor
// clocks advance asynchronously. It always blocks the caller; the release
// event re-enters the processor past the barrier.
func (s *simulator) arriveBarrier(id memory.Addr, p *proc, now uint64) (blocked bool) {
	bs := &s.barrs[s.barrSlot(id)]
	bs.arrived++
	if now > bs.maxArrival {
		bs.maxArrival = now
	}
	if bs.arrived < len(s.procs) {
		bs.waiting = append(bs.waiting, p.id)
		return true
	}
	release := bs.maxArrival
	for _, wid := range bs.waiting {
		w := s.procs[wid]
		w.stats.BarrierWait += release - w.waitStart
		if s.rec != nil {
			s.rec.Wait(w.id, obs.PhaseBarrierWait, w.waitStart, release)
		}
		s.eng.At(release, w.runFn)
	}
	bs.arrived = 0
	bs.maxArrival = 0
	bs.waiting = bs.waiting[:0]
	p.stats.BarrierWait += release - now
	if s.rec != nil {
		s.rec.Wait(p.id, obs.PhaseBarrierWait, now, release)
	}
	s.eng.At(release, p.runFn)
	return true
}

// checkSnoopFilter cross-checks the duplicate tags against the caches they
// copy: the holder sets read from the tag arrays must equal a full scan of
// the data and victim caches holding a valid copy of la. Enabled by
// Config.CheckInvariants; a difference fails the run with a
// *check.Violation, since a snoop filter that misses a holder silently skips
// a coherence action.
func (s *simulator) checkSnoopFilter(now uint64, la memory.Addr) {
	held := s.tags.Holders(la)
	var victimHeld, scan, victimScan uint64
	if s.victimTags != nil {
		victimHeld = s.victimTags.Holders(la)
	}
	for _, p := range s.procs {
		if p.cache.HoldsValid(la) {
			scan |= 1 << uint(p.id)
		}
		if p.victim != nil && p.victim.HoldsValid(la) {
			victimScan |= 1 << uint(p.id)
		}
	}
	if scan != held || victimScan != victimHeld {
		s.fail(&check.Violation{Cycle: now, Line: la, Rule: "snoop-filter", Detail: fmt.Sprintf(
			"duplicate tags name caches %#x and victim caches %#x, a full scan finds %#x and %#x",
			held, victimHeld, scan, victimScan)})
	}
}

// checkLine verifies the active protocol's ownership invariants for one line
// across all caches (internal/check; the rule comes from
// coherence.Protocol.Invariant). Enabled by Config.CheckInvariants. It is
// called at each bus grant touching the line — the transaction's
// serialization point, before snooping would repair a corrupted remote copy —
// and again after a fill installs. A violation fails the run with a
// *check.Violation carrying every cache's view of the line.
func (s *simulator) checkLine(now uint64, la memory.Addr) {
	states := make([]check.ProcLineState, len(s.procs))
	for i, p := range s.procs {
		ps := check.ProcLineState{Proc: p.id, State: p.cache.StateOf(la)}
		if p.victim != nil {
			ps.VictimState = p.victim.StateOf(la)
		}
		if inf := p.findInflight(la); inf != nil {
			ps.Inflight, ps.Excl, ps.IsPrefetch = true, inf.excl, inf.isPrefetch
		}
		states[i] = ps
	}
	if v := check.CheckLine(now, la, states, s.rule); v != nil {
		s.fail(v)
	}
}
