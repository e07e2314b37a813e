package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"busprefetch/internal/coherence"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// Config scales and seeds the whole experiment suite and names the machine
// its grid simulates. Each section takes a fixed part of that machine, and
// this list is the one place the inheritance is written down:
//
//   - the grid (Figures 1-3, Tables 2-5, and the online section's NP
//     baselines) runs on MemLatency, Protocol, Prefetcher and Interconnect;
//   - the observability slice and the online rows run on MemLatency,
//     Protocol and Interconnect, so they measure the same machine as the
//     grid cells they sit beside; the observability slice takes the oracle
//     prefetcher (with the default Prefetcher its cells are grid cells),
//     and the online section sweeps prefetchers itself;
//   - the interconnect ladder runs on MemLatency and Protocol and sweeps its
//     own fabrics, with the oracle prefetcher;
//   - the ablations and protocols sections run on the paper's machine and
//     ignore all four fields.
type Config struct {
	// Scale multiplies trace lengths (1.0 = calibrated default).
	Scale float64
	// Seed seeds the workload generators.
	Seed int64
	// MemLatency is the total memory latency (paper: 100).
	MemLatency int
	// Transfers is the data-transfer sweep; nil selects the paper's
	// {4, 8, 16, 24, 32}.
	Transfers []int
	// Protocol selects the coherence protocol (the zero value is Illinois,
	// the paper's machine).
	Protocol coherence.Kind
	// Prefetcher selects how grid cells' prefetches are decided: the oracle
	// annotator (the zero value, the paper's machine) or one of the online
	// engines, which replay the bare demand stream and issue at simulation
	// time under each cell's strategy.
	Prefetcher prefetch.Kind
	// Interconnect selects the fabric (the zero value is the paper's single
	// priority bus).
	Interconnect interconnect.Config
	// Parallelism bounds concurrent simulations; 0 selects GOMAXPROCS.
	Parallelism int
	// PerRun, when non-nil, adjusts one run's simulator configuration just
	// before it executes, after the cell's Key has been translated. It sees
	// every cell the suite simulates, ablations included. Tests use it to
	// enable invariant checking or to poison a single cell with injected
	// faults (sim.Config.Faults) and prove the rest of the suite still
	// renders.
	PerRun func(k Key, cfg *sim.Config)
	// Timeout, when positive, bounds each cell's one run (trace generation
	// included): the run's context expires and the simulator aborts at its
	// next cancellation poll. A timed-out cell is the one failure classified
	// retryable (runner.Classify).
	Timeout time.Duration
	// Checkpoints, when non-nil, persists each completed cell so an
	// interrupted sweep resumes recomputing only the missing ones. See
	// checkpoint.go for the key discipline and the exactness guarantee.
	// A suite with a PerRun hook does not checkpoint.
	Checkpoints *runner.CheckpointStore
}

// DefaultConfig returns the paper's sweep at full scale.
func DefaultConfig() Config {
	return Config{Scale: 1.0, Seed: 1, MemLatency: 100, Transfers: []int{4, 8, 16, 24, 32}}
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MemLatency == 0 {
		c.MemLatency = 100
	}
	if len(c.Transfers) == 0 {
		c.Transfers = []int{4, 8, 16, 24, 32}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// paper is the paper's machine: the configuration every zero Key field
// names, and the base every cell's simulator configuration starts from.
var paper = sim.DefaultConfig()

// Key is the one cell spec: every cell the suite runs, in every section, is
// a Key, and the Key with the suite's scale and seed determines the cell's
// result. A zero field means
// the paper's default, so Key{Workload, Strategy, Transfer} names the
// paper-machine grid cell. Sections build their keys on the suite's machine
// as Config's doc comment lists. Every report starts by building the grid's
// keys (KeysFor), so the key stays compact: 112 bytes, with the small
// numeric variations held in int32s packed beside the flags.
type Key struct {
	Workload     string
	Strategy     prefetch.Strategy
	Transfer     int
	Restructured bool
	// Buffer prefetches into the non-snooping FIFO buffer of §3.1
	// (sim.PrefetchToBuffer) and annotates with ExcludeWriteShared, since
	// the buffer cannot hold write-shared data.
	Buffer     bool
	MemLatency int32
	// Prefetcher decides the prefetches: the oracle annotator (zero) or an
	// online engine issuing under Strategy at simulation time.
	Prefetcher  prefetch.Kind
	Protocol    coherence.Kind
	Fabric      interconnect.Config
	Geometry    memory.Geometry
	VictimLines int32
	// Distance overrides the strategy's prefetch distance.
	Distance int32
}

// canonical zeroes the fields that spell out a paper default, so two keys
// for one cell compare equal.
func (k Key) canonical() Key {
	if k.MemLatency == int32(paper.MemLatency) {
		k.MemLatency = 0
	}
	if k.Geometry == paper.Geometry {
		k.Geometry = memory.Geometry{}
	}
	if f := k.Fabric; (f.Kind == interconnect.SingleBus && f.Links == 1) ||
		(f.Kind == interconnect.MultiBus && f.Links == interconnect.DefaultMultiBusLinks) {
		k.Fabric.Links = 0
	}
	return k
}

// SpecString spells every field of the canonical Key. It is the one
// spelling of a cell in the stores: the checkpoint key ends with it, and so
// does a single run's result-store key (busprefetch.RunSpec.SpecString).
func (k Key) SpecString() string {
	k = k.canonical()
	g := k.Geometry
	return fmt.Sprintf("wl=%s|strat=%s|t=%d|restr=%t|buf=%t|pf=%s|proto=%s|ic=%s|mem=%d|geom=%d/%d/%d|victim=%d|dist=%d",
		k.Workload, k.Strategy, k.Transfer, k.Restructured, k.Buffer, k.Prefetcher, k.Protocol,
		k.Fabric.String(), k.MemLatency, g.CacheSize, g.LineSize, g.Assoc, k.VictimLines, k.Distance)
}

// maxLinks bounds a client's link count: the workloads' processor bound,
// since the fabric allocates per link.
const maxLinks = 64

// ParseMachine resolves the machine every front end names — a memory
// latency, a coherence protocol, a prefetcher, and a fabric with its link
// count and arbitration discipline — into the Key fields they set. Names
// are case insensitive, and a zero latency or an empty name selects the
// paper's default.
func ParseMachine(memLatency int, protocol, prefetcher, fabric string, links int, discipline string) (Key, error) {
	var k Key
	err := errors.Join(CheckRange("mem_latency", memLatency, 0, math.MaxInt32), CheckRange("buses", links, 0, maxLinks))
	if err == nil && protocol != "" {
		k.Protocol, err = coherence.Parse(protocol)
	}
	if err == nil && prefetcher != "" {
		k.Prefetcher, err = prefetch.ParsePrefetcher(prefetcher)
	}
	if err == nil {
		k.Fabric, err = interconnect.ParseConfig(cmp.Or(fabric, "bus"), links, cmp.Or(discipline, "priority"))
	}
	k.MemLatency = int32(memLatency)
	return k.canonical(), err
}

// MaxScale bounds the trace-length multiplier a client's run or sweep may
// ask for: 100 times the paper's trace lengths is about 10^7 references per
// process, already hours of simulation for a full sweep.
const MaxScale = 100

// CheckScale rejects a client's trace-length multiplier outside
// [0, MaxScale] (zero selects the default of 1), NaN included.
func CheckScale(scale float64) error {
	if !(scale >= 0 && scale <= MaxScale) {
		return fmt.Errorf("scale %g outside [0, %d]", scale, MaxScale)
	}
	return nil
}

// CheckRange rejects a client's value outside [lo, hi], naming the field.
// Values bound for a Key's int32 fields pass through it, so an out-of-range
// value fails instead of aliasing another cell, and so do values that size
// a per-processor allocation.
func CheckRange(field string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("%s %d outside [%d, %d]", field, v, lo, hi)
	}
	return nil
}

// String labels the cell: "workload/strategy/T=transfer", then each field
// that differs from the paper default.
func (k Key) String() string {
	s := fmt.Sprintf("%s/%s/T=%d", k.Workload, k.Strategy, k.Transfer)
	if k.Restructured {
		s += " restructured"
	}
	if k.Prefetcher != prefetch.Oracle {
		s += " pf=" + k.Prefetcher.String()
	}
	if k.Protocol != coherence.Illinois {
		s += " proto=" + k.Protocol.String()
	}
	if k.Fabric != (interconnect.Config{}) {
		s += " ic=" + k.Fabric.String()
	}
	if k.MemLatency != 0 {
		s += fmt.Sprintf(" mem=%d", k.MemLatency)
	}
	if g := k.Geometry; g != (memory.Geometry{}) {
		s += fmt.Sprintf(" geom=%dB/%dB/%dway", g.CacheSize, g.LineSize, g.Assoc)
	}
	if k.VictimLines != 0 {
		s += fmt.Sprintf(" victim=%d", k.VictimLines)
	}
	if k.Buffer {
		s += " buffer"
	}
	if k.Distance != 0 {
		s += fmt.Sprintf(" dist=%d", k.Distance)
	}
	return s
}

// Suite runs and memoizes simulations. Parallel execution is delegated to
// internal/runner: a bounded worker pool shards the independent cells, a
// singleflight trace cache plans each (workload, scale, seed, restructured,
// geometry) source exactly once, and every reduction happens in canonical
// cell order, so the rendered output is byte-identical at any worker count.
type Suite struct {
	cfg    Config
	pool   *runner.Pool
	traces *runner.TraceCache
	// cells memoizes every cell's result by its canonical Key, so a cell
	// two sections share simulates once, and concurrent askers wait on one
	// flight. Failures are kept too, so every table annotates a broken cell
	// the same way without re-simulating — unless the sweep's own context
	// was dying, which says nothing about the cell, so a resume recomputes
	// it.
	cells runner.Memo[Key, *sim.Result]

	mu sync.Mutex
	// timings accumulates the wall-clock of every pool-executed cell for
	// the benchmark report.
	timings []runner.Timing
}

// NewSuite creates a suite with the given configuration.
func NewSuite(cfg Config) *Suite {
	cfg = cfg.withDefaults()
	return &Suite{cfg: cfg, pool: runner.NewPool(cfg.Parallelism), traces: runner.NewTraceCache()}
}

// Config returns the suite's effective configuration.
func (s *Suite) Config() Config { return s.cfg }

// Workers returns the suite's worker-pool bound.
func (s *Suite) Workers() int { return s.pool.Workers() }

// Info returns the Table 1 metadata for a workload. It comes from the
// workload's plan (layout and sizing), so no trace is generated.
func (s *Suite) Info(name string) (workload.Info, error) {
	_, info, err := s.sourceFor(context.Background(), name, false, memory.Geometry{})
	return info, err
}

// traceKey is the cache key for a workload variant at a layout geometry.
func (s *Suite) traceKey(name string, restructured bool, g memory.Geometry) runner.TraceKey {
	return runner.TraceKey{
		Workload:     name,
		Scale:        s.cfg.Scale,
		Seed:         s.cfg.Seed,
		Restructured: restructured,
		Geometry:     g,
	}
}

// sourceFor returns (planning on first use) the unannotated streaming
// source for a workload variant. Planning does the layout and sizing work
// only; events are produced on demand every time the source is drained,
// so one cached source serves any number of concurrent cells without
// holding a trace in memory.
func (s *Suite) sourceFor(ctx context.Context, name string, restructured bool, g memory.Geometry) (trace.Source, workload.Info, error) {
	return s.traces.GetSource(ctx, s.traceKey(name, restructured, g), func() (trace.Source, workload.Info, error) {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, workload.Info{}, err
		}
		return w.Source(workload.Params{
			Scale: s.cfg.Scale, Seed: s.cfg.Seed, Restructured: restructured, Geometry: g,
		})
	})
}

// onSuite puts k on the suite's machine: its memory latency, protocol,
// prefetcher and fabric. Sections then override what they pin or sweep
// (see Config).
func (s *Suite) onSuite(k Key) Key {
	k.MemLatency = int32(s.cfg.MemLatency)
	k.Protocol = s.cfg.Protocol
	k.Prefetcher = s.cfg.Prefetcher
	k.Fabric = s.cfg.Interconnect
	return k.canonical()
}

// machine translates k into the simulator configuration and annotation
// options that run it: the paper's machine with every non-zero Key field
// applied. The caller applies PerRun and then takes the annotation
// geometry from the final configuration.
func machine(k Key) (sim.Config, prefetch.Options) {
	cfg := paper
	cfg.Label = k.String()
	cfg.TransferCycles = k.Transfer
	cfg.Protocol = k.Protocol
	cfg.Interconnect = k.Fabric
	cfg.VictimCacheLines = int(k.VictimLines)
	if k.MemLatency != 0 {
		cfg.MemLatency = int(k.MemLatency)
	}
	if k.Geometry != (memory.Geometry{}) {
		cfg.Geometry = k.Geometry
	}
	if k.Buffer {
		cfg.PrefetchTarget = sim.PrefetchToBuffer
	}
	if k.Prefetcher.Online() {
		cfg.Online = prefetch.OnlineConfig{Kind: k.Prefetcher, Strategy: k.Strategy}
	}
	return cfg, prefetch.Options{Strategy: k.Strategy, Distance: int(k.Distance), ExcludeWriteShared: k.Buffer}
}

// simulate runs the uncached cell k through Simulate, with the
// suite's own lookups: the cached source of k's workload variant, the
// memoized sharing profile, and PerRun. Every suite cell records, so the
// result's Obs carries its summary.
func (s *Suite) simulate(ctx context.Context, k Key) (*sim.Result, error) {
	// The trace is generated at the cell's own geometry so the layouts
	// (conflict-pair placement, padding) stay consistent with the simulated
	// cache; the trace cache keys on geometry, so every cell at the default
	// shape shares one plan.
	src, _, err := s.sourceFor(ctx, k.Workload, k.Restructured, k.Geometry)
	if err != nil {
		return nil, err
	}
	return Simulate(ctx, k, src, func(cfg *sim.Config) {
		if s.cfg.PerRun != nil {
			s.cfg.PerRun(k, cfg)
		}
		cfg.Obs = obs.New(src.Procs(), obs.Options{})
	}, func(g memory.Geometry) (*trace.SharingProfile, error) {
		// Memoized per (trace, geometry), so the cells that share the
		// whole-stream pre-pass analyze once.
		return s.traces.SharingProfile(ctx, s.traceKey(k.Workload, k.Restructured, k.Geometry), g, src)
	})
}

// Simulate runs the cell k once over src, the unannotated source of k's
// workload variant: k's machine, then edit (when non-nil) on its simulator
// configuration, then k's prefetcher annotating src at the configured
// geometry, then the simulator. It is the one pipeline every simulation
// takes, suite cells and single runs alike. The pipeline streams: events
// flow generator → annotator → simulator one chunk at a time, nothing
// materialized. For a PWS or buffer-prefetching k, sharing (when non-nil)
// supplies src's write-shared line set; with a nil sharing the oracle
// computes it with a pre-pass of its own where it needs one.
func Simulate(ctx context.Context, k Key, src trace.Source, edit func(*sim.Config),
	sharing func(memory.Geometry) (*trace.SharingProfile, error)) (*sim.Result, error) {
	cfg, opt := machine(k.canonical())
	if edit != nil {
		edit(&cfg)
	}
	opt.Geometry = cfg.Geometry
	var prof *trace.SharingProfile
	if sharing != nil && (opt.Strategy == prefetch.PWS || opt.ExcludeWriteShared) {
		var err error
		if prof, err = sharing(opt.Geometry); err != nil {
			return nil, err
		}
	}
	annotated, err := prefetch.ByKind(k.Prefetcher).AnnotateSource(src, opt, prof)
	if err != nil {
		return nil, err
	}
	return sim.RunSourceContext(ctx, cfg, annotated)
}

// Bench assembles the benchmark report for everything the suite has executed
// through its worker pool so far. total is the end-to-end wall clock the
// caller measured around the run.
func (s *Suite) Bench(total time.Duration) *runner.BenchReport {
	s.mu.Lock()
	timings := append([]runner.Timing(nil), s.timings...)
	s.mu.Unlock()
	return runner.NewBenchReport(s.cfg.Scale, s.cfg.Seed, s.pool.Workers(),
		runtime.GOMAXPROCS(0), timings, total, s.traces)
}

// Result simulates (or returns the memoized result for) one cell. A failed
// run is memoized too: the error comes back for every table that needs the
// cell, without re-simulating, and without affecting any other cell.
func (s *Suite) Result(k Key) (*sim.Result, error) {
	res, _, err := s.cell(context.Background(), k)
	return res, err
}

// cell is the one path every cell takes: the memo, then the checkpoint
// store, then one simulation bounded by the per-cell timeout, then the
// checkpoint store again. The sweep's cancellation propagates into the
// simulation's event loop. hit reports whether the memo already held (or
// was computing) the cell.
func (s *Suite) cell(ctx context.Context, k Key) (*sim.Result, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k = k.canonical()
	return s.cells.Do(ctx, k, func() (*sim.Result, bool, error) {
		if res, ok := s.loadCheckpoint(k); ok {
			return res, true, nil
		}
		runCtx := ctx
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}
		res, err := s.simulate(runCtx, k)
		if err != nil {
			// A failure while the sweep itself was cancelled is
			// circumstantial: forget it so a resume recomputes the cell.
			return nil, ctx.Err() == nil, fmt.Errorf("experiments: %v: %w", k, err)
		}
		s.storeCheckpoint(k, res)
		return res, true, nil
	})
}

// CellError records one failed suite cell.
type CellError struct {
	Key Key
	Err error
	// Terminal reports the error's classification (see runner.Classify):
	// terminal failures are facts about the cell that recur on every run,
	// retryable ones ran out of the per-cell timeout.
	Terminal bool
}

func (c CellError) class() runner.ErrClass {
	if c.Terminal {
		return runner.Terminal
	}
	return runner.Retryable
}

// CellErrors aggregates every failed cell of a Prewarm pass. It is an error,
// but one the caller can choose to treat as a warning: each failed cell is
// memoized, the healthy cells all simulated, and the grid sections annotate
// the failures in place.
type CellErrors struct {
	Cells []CellError
}

func (e *CellErrors) Error() string {
	msg := fmt.Sprintf("experiments: %d of the suite's runs failed:", len(e.Cells))
	for _, c := range e.Cells {
		msg += fmt.Sprintf("\n  %v [%s]: %v", c.Key, c.class(), c.Err)
	}
	return msg
}

// Failures converts the cell errors to the metrics-report form.
func (e *CellErrors) Failures() []runner.CellFailure {
	out := make([]runner.CellFailure, len(e.Cells))
	for i, c := range e.Cells {
		out[i] = runner.CellFailure{Cell: c.Key.String(), Err: c.Err.Error(), Class: c.class().String()}
	}
	return out
}

// Prewarm simulates the given keys in parallel on the suite's worker pool,
// each once. A failing cell does not stop the others. When any cell failed,
// Prewarm returns a *CellErrors naming each one (in deterministic key order)
// with its classification; the failures are memoized, so the grid sections
// will annotate exactly those cells rather than failing outright.
//
// Cancelling ctx stops the sweep: running cells abort at the simulator's
// next cancellation poll, queued cells are skipped, and Prewarm returns
// ctx.Err() — not a CellErrors — since nothing definitive was learned about
// the skipped cells. Completed cells stay memoized (and checkpointed, when a
// store is configured), so a resumed sweep recomputes only what is missing.
//
// Concurrent cells that need the same base trace do not duplicate its
// plan: the trace cache singleflights, so the first cell plans while the
// rest wait, then all drain the same restartable source. Each cell runs
// its own simulator with its own progress watchdog (sim.Config.WatchdogCycles),
// so a hung cell aborts alone. Only cells that were not already memoized
// enter the benchmark report.
func (s *Suite) Prewarm(ctx context.Context, keys []Key, progress func(done, total int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Deduplicate and order deterministically so error reporting is stable.
	labels := make(map[Key]string, len(keys))
	var todo []Key
	for _, k := range keys {
		k = k.canonical()
		if _, ok := labels[k]; !ok {
			labels[k] = k.String()
			todo = append(todo, k)
		}
	}
	sort.Slice(todo, func(i, j int) bool { return labels[todo[i]] < labels[todo[j]] })

	tasks := make([]runner.Task, len(todo))
	hits := make([]bool, len(todo))
	for i, k := range todo {
		tasks[i] = runner.Task{Label: labels[k], Run: func(ctx context.Context) (err error) {
			_, hits[i], err = s.cell(ctx, k)
			return err
		}}
	}
	errs, times := s.pool.Do(ctx, tasks, progress)
	s.mu.Lock()
	for i, t := range times {
		if !hits[i] {
			s.timings = append(s.timings, t)
		}
	}
	s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}

	var failed []CellError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, CellError{Key: todo[i], Err: err, Terminal: runner.Classify(err) == runner.Terminal})
		}
	}
	if len(failed) > 0 {
		return &CellErrors{Cells: failed}
	}
	return nil
}

// results runs keys through Prewarm and returns their results in key
// order. Unlike the grid tables, which annotate a failed cell in place, a
// section built on results fails at its first failed cell (in key order):
// its rows compare cells with one another, so a partial section would
// mislead more than it informs.
func (s *Suite) results(ctx context.Context, keys []Key) ([]*sim.Result, error) {
	if err := s.Prewarm(ctx, keys, nil); err != nil && !errors.As(err, new(*CellErrors)) {
		return nil, err
	}
	out := make([]*sim.Result, len(keys))
	for i, k := range keys {
		res, _, err := s.cell(ctx, k)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// WorkloadNames returns the five paper workloads in presentation order.
func WorkloadNames() []string {
	all := workload.All()
	names := make([]string, 0, len(all))
	for _, w := range all {
		names = append(names, w.Name)
	}
	return names
}

// GridKeys returns the (workload x strategy x transfer) grid used by
// Figures 1-2 and Table 2, on the suite's machine.
func (s *Suite) GridKeys() []Key {
	names, strategies := WorkloadNames(), prefetch.Strategies()
	keys := make([]Key, 0, len(names)*len(strategies)*len(s.cfg.Transfers))
	return s.appendGrid(keys, names, strategies, s.cfg.Transfers, false)
}

// The restructured programs Tables 4 and 5 compare, and the disciplines
// they run.
var (
	restructuredWorkloads  = []string{"topopt", "pverify"}
	restructuredStrategies = []prefetch.Strategy{prefetch.NP, prefetch.PREF, prefetch.PWS}
)

// appendGrid appends the workloads x strategies x transfers grid on the
// suite's machine to keys.
func (s *Suite) appendGrid(keys []Key, workloads []string, strategies []prefetch.Strategy, transfers []int, restructured bool) []Key {
	base := s.onSuite(Key{Restructured: restructured})
	for _, wl := range workloads {
		for _, st := range strategies {
			for _, tr := range transfers {
				k := base
				k.Workload, k.Strategy, k.Transfer = wl, st, tr
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// grid returns the grid cell k on the suite's machine.
func (s *Suite) grid(k Key) (*sim.Result, error) { return s.Result(s.onSuite(k)) }
