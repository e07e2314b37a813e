package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// Config scales and seeds the whole experiment suite.
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
	// Protocol selects the coherence protocol every grid cell simulates
	// (the zero value is Illinois, the paper's machine). The protocol
	// ablation ignores it — it sweeps protocols itself.
	Protocol sim.Protocol
	// Prefetcher selects how every grid cell's prefetches are decided: the
	// oracle annotator (the zero value, the paper's machine) or one of the
	// online engines, which replay the bare demand stream and issue at
	// simulation time under each cell's strategy. The online-vs-oracle
	// section ignores it — it sweeps prefetchers itself — and the
	// observability slice always records the oracle.
	Prefetcher prefetch.Kind
	// Interconnect selects the fabric every grid cell simulates (the zero
	// value is the paper's single priority bus). The interconnect section
	// ignores it — it sweeps topologies itself.
	Interconnect interconnect.Config
	// Parallelism bounds concurrent simulations; 0 selects GOMAXPROCS.
	Parallelism int
	// PerRun, when non-nil, adjusts one run's simulator configuration just
	// before it executes (after the suite's own fields are applied). Tests
	// use it to enable invariant checking or to poison a single cell with
	// injected faults (sim.Config.Faults) and prove the rest of the suite
	// still renders.
	PerRun func(k Key, cfg *sim.Config)
	// Timeout, when positive, bounds each cell attempt's wall clock (trace
	// generation included): the attempt's context expires and the simulator
	// aborts at its next cancellation poll. A timed-out attempt is retryable.
	Timeout time.Duration
	// Retries is how many extra attempts a retryably-failing cell gets
	// (injected transient faults, watchdog stalls, per-cell timeouts).
	// Terminal failures — invariant violations, panics, a cancelled sweep —
	// never retry. Zero means one attempt, no retries.
	Retries int
	// Checkpoints, when non-nil, persists each completed cell so an
	// interrupted sweep resumes recomputing only the missing ones. See
	// checkpoint.go for the key discipline and the exactness guarantee.
	Checkpoints *runner.CheckpointStore
	// Salt segregates checkpoint namespaces. It is required for
	// checkpointing when PerRun is set (the hook can change what a cell
	// computes, so the caller must name the variation); otherwise optional.
	Salt string
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

// Key identifies one simulation run.
type Key struct {
	Workload     string
	Strategy     prefetch.Strategy
	Transfer     int
	Restructured bool
}

func (k Key) String() string {
	r := ""
	if k.Restructured {
		r = " restructured"
	}
	return fmt.Sprintf("%s/%s/T=%d%s", k.Workload, k.Strategy, k.Transfer, r)
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

	mu      sync.Mutex
	results map[Key]*sim.Result
	// errs memoizes failed runs: a poisoned or broken configuration fails
	// once (after its retry budget) and every table that needs the cell gets
	// the same error without re-simulating. Failures observed while the
	// sweep's own context was dying are NOT memoized — a cancelled sweep
	// must not poison the cell for a later resume.
	errs map[Key]cellFailure
	// timings accumulates the wall-clock of every pool-executed task for
	// the benchmark report.
	timings []runner.Timing
}

// NewSuite creates a suite with the given configuration.
func NewSuite(cfg Config) *Suite {
	cfg = cfg.withDefaults()
	return &Suite{
		cfg:     cfg,
		pool:    runner.NewPool(cfg.Parallelism),
		traces:  runner.NewTraceCache(),
		results: make(map[Key]*sim.Result),
		errs:    make(map[Key]cellFailure),
	}
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

// runCell is the shared cell executor: it resolves a workload variant,
// annotates it with prefetcher pf under opt, and simulates it under cfg.
// The whole pipeline streams — events flow generator → annotator →
// simulator in pooled chunks, nothing materialized.
//
// genGeom is the layout geometry the trace is generated at (zero selects
// the default); opt.Geometry is the annotation geometry, which PerRun
// hooks may have adjusted independently. preRun, when non-nil, runs just
// before the simulation with the processor count — the observability
// cells size their recorder with it.
func (s *Suite) runCell(ctx context.Context, cfg sim.Config, wl string, restructured bool,
	genGeom memory.Geometry, pf prefetch.Kind, opt prefetch.Options,
	preRun func(procs int, cfg *sim.Config)) (*sim.Result, error) {
	src, _, err := s.sourceFor(ctx, wl, restructured, genGeom)
	if err != nil {
		return nil, err
	}
	var prof *trace.SharingProfile
	if opt.Strategy == prefetch.PWS || opt.ExcludeWriteShared {
		// The write-shared line set needs a whole-stream pre-pass; memoize
		// it per (trace, geometry) so the cells that share it analyze once.
		prof, err = s.traces.SharingProfile(ctx, s.traceKey(wl, restructured, genGeom), opt.Geometry, src)
		if err != nil {
			return nil, err
		}
	}
	annotated, err := prefetch.ByKind(pf).AnnotateSource(src, opt, prof)
	if err != nil {
		return nil, err
	}
	if preRun != nil {
		preRun(annotated.Procs(), &cfg)
	}
	return sim.RunSourceContext(ctx, cfg, annotated)
}

// recordTimings appends pool timings for the benchmark report.
func (s *Suite) recordTimings(times []runner.Timing) {
	s.mu.Lock()
	s.timings = append(s.timings, times...)
	s.mu.Unlock()
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

// cellFailure is a memoized failed run: the final error plus how many
// attempts the retry policy spent reaching it.
type cellFailure struct {
	err      error
	attempts int
}

// Result simulates (or returns the memoized result for) one configuration.
// A failed run is memoized too: the error comes back for every table that
// needs the cell, without re-simulating, and without affecting any other
// cell.
func (s *Suite) Result(k Key) (*sim.Result, error) {
	return s.result(context.Background(), k)
}

// result is Result under a context: the sweep's cancellation (and the
// per-cell Timeout) propagate into the simulation's event loop, retryable
// failures re-run under the suite's retry budget, and completed cells are
// persisted to the checkpoint store when one is configured.
func (s *Suite) result(ctx context.Context, k Key) (*sim.Result, error) {
	s.mu.Lock()
	if r, ok := s.results[k]; ok {
		s.mu.Unlock()
		return r, nil
	}
	if f, ok := s.errs[k]; ok {
		s.mu.Unlock()
		return nil, f.err
	}
	s.mu.Unlock()

	if res, ok := s.loadCellCheckpoint(k); ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		if cached, ok := s.results[k]; ok {
			return cached, nil
		}
		s.results[k] = res
		return res, nil
	}

	var res *sim.Result
	err, attempts := runner.Retry(ctx, s.retryPolicy(k.String()), func(ctx context.Context) error {
		r, rerr := s.simulate(ctx, k)
		if rerr == nil {
			res = r
		}
		return rerr
	})
	if err == nil {
		s.storeCellCheckpoint(k, res)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.results[k]; ok {
		return cached, nil
	}
	if f, ok := s.errs[k]; ok {
		return nil, f.err
	}
	if err != nil {
		if ctx == nil || ctx.Err() == nil {
			// Genuine failure: memoize it (with its attempt count) so every
			// table annotates the same cell the same way. When the sweep
			// itself was cancelled the failure is circumstantial — leave the
			// cell unmemoized so a resume recomputes it.
			s.errs[k] = cellFailure{err: err, attempts: attempts}
		}
		return nil, err
	}
	s.results[k] = res
	return res, nil
}

// retryPolicy builds the per-cell retry policy. The jitter seed mixes the
// suite seed with the cell label, so retry schedules are deterministic per
// cell but decorrelated across cells.
func (s *Suite) retryPolicy(label string) runner.Policy {
	h := fnv.New64a()
	h.Write([]byte(label))
	return runner.Policy{
		MaxAttempts: s.cfg.Retries + 1,
		Seed:        s.cfg.Seed ^ int64(h.Sum64()),
	}
}

// simulate runs one cell attempt uncached, under the per-cell timeout.
func (s *Suite) simulate(ctx context.Context, k Key) (*sim.Result, error) {
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	cfg := sim.DefaultConfig()
	cfg.Label = k.String()
	cfg.MemLatency = s.cfg.MemLatency
	cfg.TransferCycles = k.Transfer
	cfg.Protocol = s.cfg.Protocol
	cfg.Interconnect = s.cfg.Interconnect
	if s.cfg.PerRun != nil {
		s.cfg.PerRun(k, &cfg)
	}
	if s.cfg.Prefetcher.Online() {
		cfg.Online = prefetch.OnlineConfig{Kind: s.cfg.Prefetcher, Strategy: k.Strategy}
	}
	res, err := s.runCell(ctx, cfg, k.Workload, k.Restructured, memory.Geometry{},
		s.cfg.Prefetcher, prefetch.Options{Strategy: k.Strategy, Geometry: cfg.Geometry}, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %v: %w", k, err)
	}
	return res, nil
}

// CellError records one failed suite cell.
type CellError struct {
	Key Key
	Err error
	// Attempts is how many times the cell ran before the error stuck.
	Attempts int
	// Terminal reports the error's classification (see runner.Classify):
	// terminal failures are deterministic facts about the configuration,
	// retryable ones exhausted their attempt budget.
	Terminal bool
}

// CellErrors aggregates every failed cell of a Prewarm pass. It is an error,
// but one the caller can choose to treat as a warning: each failed cell is
// memoized, the healthy cells all simulated, and the table builders annotate
// the failures in place.
type CellErrors struct {
	Cells []CellError
}

func (e *CellErrors) Error() string {
	msg := fmt.Sprintf("experiments: %d of the suite's runs failed:", len(e.Cells))
	for _, c := range e.Cells {
		class := "retryable, exhausted"
		if c.Terminal {
			class = "terminal"
		}
		msg += fmt.Sprintf("\n  %v [%s, %d attempt(s)]: %v", c.Key, class, c.Attempts, c.Err)
	}
	return msg
}

// Failures converts the cell errors to the metrics-report form.
func (e *CellErrors) Failures() []runner.CellFailure {
	out := make([]runner.CellFailure, len(e.Cells))
	for i, c := range e.Cells {
		class := runner.Retryable
		if c.Terminal {
			class = runner.Terminal
		}
		out[i] = runner.CellFailure{
			Cell:     c.Key.String(),
			Err:      c.Err.Error(),
			Attempts: c.Attempts,
			Class:    class.String(),
		}
	}
	return out
}

// Prewarm simulates the given keys in parallel on the suite's worker pool.
// Every key is attempted: a failing cell does not stop the others. When any
// cell failed, Prewarm returns a *CellErrors naming each one (in
// deterministic key order) with its attempt count and classification; the
// failures are memoized, so the table builders will annotate exactly those
// cells rather than failing outright.
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
// so a hung cell aborts alone.
func (s *Suite) Prewarm(ctx context.Context, keys []Key, progress func(done, total int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Deduplicate and order deterministically so error reporting is stable.
	seen := make(map[Key]bool, len(keys))
	var todo []Key
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			todo = append(todo, k)
		}
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].String() < todo[j].String() })

	tasks := make([]runner.Task, len(todo))
	for i, k := range todo {
		tasks[i] = runner.Task{Label: k.String(), Run: func(ctx context.Context) error {
			_, err := s.result(ctx, k)
			return err
		}}
	}
	errs, times := s.pool.Do(ctx, tasks, progress)
	s.recordTimings(times)
	if err := ctx.Err(); err != nil {
		return err
	}

	var failed []CellError
	s.mu.Lock()
	for i, err := range errs {
		if err == nil {
			continue
		}
		ce := CellError{Key: todo[i], Err: err, Attempts: 1,
			Terminal: runner.Classify(err) == runner.Terminal}
		if f, ok := s.errs[todo[i]]; ok {
			ce.Attempts = f.attempts
		}
		failed = append(failed, ce)
	}
	s.mu.Unlock()
	if len(failed) > 0 {
		return &CellErrors{Cells: failed}
	}
	return nil
}

// WorkloadNames returns the five paper workloads in presentation order.
func WorkloadNames() []string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return names
}

// GridKeys returns the (workload x strategy x transfer) grid used by
// Figures 1-2 and Table 2.
func (s *Suite) GridKeys() []Key {
	var keys []Key
	for _, wl := range WorkloadNames() {
		for _, st := range prefetch.Strategies() {
			for _, tr := range s.cfg.Transfers {
				keys = append(keys, Key{Workload: wl, Strategy: st, Transfer: tr})
			}
		}
	}
	return keys
}

// RestructuredKeys returns the runs Tables 4 and 5 need.
func (s *Suite) RestructuredKeys() []Key {
	var keys []Key
	for _, wl := range []string{"topopt", "pverify"} {
		for _, st := range []prefetch.Strategy{prefetch.NP, prefetch.PREF, prefetch.PWS} {
			for _, tr := range s.cfg.Transfers {
				keys = append(keys, Key{Workload: wl, Strategy: st, Transfer: tr, Restructured: true})
			}
		}
	}
	return keys
}
