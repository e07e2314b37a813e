package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"busprefetch/internal/cache"
	"busprefetch/internal/check"
	"busprefetch/internal/experiments"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
)

// chaosTransfer is the single data-transfer point every plan sweeps at: the
// paper's headline T=8, keeping each plan's grid to workloads x strategies.
const chaosTransfer = 8

// faultKind enumerates the fault archetypes a plan can inject.
type faultKind int

const (
	// faultNone is the control: no injected fault, so the plan exercises the
	// kill/torn-write/resume machinery alone.
	faultNone faultKind = iota
	// faultStall drops every lock release in the target cell: the first
	// acquirer of each contended lock keeps it, the waiters starve, and the
	// progress watchdog must abort with a terminal *check.StallError.
	faultStall
	// faultSpin wedges a processor in a busy loop: the run looks alive (work
	// retires every cycle), so only the per-cell timeout can end it — a
	// retryable context.DeadlineExceeded.
	faultSpin
	// faultViolation corrupts cache state; the coherence checker must abort
	// with a terminal *check.Violation.
	faultViolation
	// faultPanic panics inside the target cell; the worker pool must isolate
	// it as a terminal *runner.PanicError.
	faultPanic
)

func (k faultKind) String() string {
	switch k {
	case faultNone:
		return "none"
	case faultStall:
		return "stall"
	case faultSpin:
		return "spin"
	case faultViolation:
		return "violation"
	case faultPanic:
		return "panic"
	}
	return fmt.Sprintf("faultKind(%d)", int(k))
}

// Options configures a soak run. The zero value is usable: Soak fills in the
// defaults noted on each field.
type Options struct {
	// Seed is the master seed; every plan's randomized choices (fault target,
	// kill point, torn-write victim) derive from it, so a soak is replayable
	// by seed.
	Seed int64
	// Plans is how many fault plans to run (default 8). Kinds cycle
	// none/stall/spin/violation/panic, so 5 plans cover every archetype.
	Plans int
	// Budget, when positive, bounds the soak's wall clock: plans that have
	// not started when it expires are skipped (and counted in the report).
	Budget time.Duration
	// Scale is the sweep scale each plan runs at (default 0.1 — large enough
	// for real sharing, small enough to run dozens of plans in seconds).
	Scale float64
	// Jobs bounds each sweep's worker pool; 0 selects GOMAXPROCS.
	Jobs int
	// CellTimeout bounds each cell's run (default 2s; Soak raises it to four
	// times the fault-free sweep's slowest cell when that is longer). It
	// must be set: the spin fault is undetectable by the watchdog and only a
	// deadline terminates it.
	CellTimeout time.Duration
	// Dir is the root under which each plan gets its own checkpoint store;
	// empty selects a temp dir removed when Soak returns.
	Dir string
	// Log, when non-nil, receives per-plan progress lines.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Plans <= 0 {
		o.Plans = 8
	}
	if o.Scale == 0 {
		o.Scale = 0.1
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 2 * time.Second
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Report summarizes a soak: what was injected and what the engine survived.
type Report struct {
	// Plans is how many fault plans ran to completion; Skipped is how many
	// the wall-clock budget cut.
	Plans, Skipped int
	// Kills is how many sweeps were cancelled mid-flight; each was then
	// resumed (Resumes) from its checkpoint store, restoring CheckpointHits
	// cells instead of recomputing them.
	Kills, Resumes, CheckpointHits int
	// TornWrites is how many checkpoint entries were bit-flipped on disk
	// between a kill and its resume.
	TornWrites int
	// Injected counts target-cell runs that ran with a fault armed (a kill
	// can interrupt one, and the resume runs it again). Failed counts cells
	// that failed by design: the target of every faulted plan.
	Injected, Failed int
}

func (r *Report) String() string {
	return fmt.Sprintf("chaos: %d plan(s) ok, %d skipped: %d kill(s), %d resume(s), %d checkpoint hit(s), %d torn write(s), %d armed run(s), %d failed cell(s)",
		r.Plans, r.Skipped, r.Kills, r.Resumes, r.CheckpointHits, r.TornWrites, r.Injected, r.Failed)
}

// wantTable2 selects the one report section every plan renders for the
// golden-convergence check.
func wantTable2(name string) bool { return name == "table2" }

// Soak runs o.Plans randomized fault plans and returns the tally. Each plan
// builds a real experiment sweep (workloads x strategies at T=8, scale
// o.Scale, seed 1 — pinned so every plan recovers to one golden), injects
// one fault archetype into one randomly chosen cell, randomly kills the sweep
// mid-flight, possibly corrupts a checkpoint entry on disk, resumes the way a
// fresh process would, recovers with a fault-free sweep on the same store,
// and asserts the resilience contract documented in the package comment.
// The first violated assertion aborts the soak with an error naming the
// plan; replay it with the same Options to reproduce.
func Soak(ctx context.Context, o Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o = o.withDefaults()
	root := o.Dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "busprefetch-chaos-*")
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	// The recovery target: the bytes a fault-free sweep renders. Nothing in
	// it can spin, so it runs without a per-cell timeout.
	cfg := suiteConfig(o, nil, "", nil)
	cfg.Timeout = 0
	clean := experiments.NewSuite(cfg)
	keys := clean.GridKeys()
	if err := clean.Prewarm(ctx, keys, nil); err != nil {
		return nil, fmt.Errorf("chaos: fault-free golden sweep failed: %w", err)
	}
	golden, err := clean.RenderSections(ctx, wantTable2)
	if err != nil {
		return nil, fmt.Errorf("chaos: rendering golden: %w", err)
	}
	// Each cell runs once, so a healthy cell that ran out of the timeout
	// would fail its plan. On a host slow enough (a race build, a loaded
	// machine) that the golden sweep's slowest cell took more than a
	// quarter of the timeout, the timeout grows to four times that cell.
	for _, c := range clean.Bench(0).Cells {
		o.CellTimeout = max(o.CellTimeout, time.Duration(4*c.Millis*float64(time.Millisecond)))
	}
	o.Log("chaos: per-cell timeout %v", o.CellTimeout)

	rep := &Report{}
	start := time.Now()
	kinds := []faultKind{faultNone, faultStall, faultSpin, faultViolation, faultPanic}
	for i := 0; i < o.Plans; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if o.Budget > 0 && time.Since(start) > o.Budget {
			rep.Skipped = o.Plans - i
			o.Log("chaos: budget %v spent after %d plan(s), skipping %d", o.Budget, i, rep.Skipped)
			break
		}
		kind := kinds[i%len(kinds)]
		rng := rand.New(rand.NewSource(o.Seed ^ int64(i+1)*0x9e3779b97f4a7c))
		dir := filepath.Join(root, fmt.Sprintf("plan-%03d", i))
		if err := runPlan(ctx, o, rep, golden, keys, i, kind, rng, dir); err != nil {
			return rep, fmt.Errorf("chaos: plan %d (%s, seed %d): %w", i, kind, o.Seed, err)
		}
		rep.Plans++
	}
	return rep, nil
}

// suiteConfig builds one plan's sweep configuration. The sweep seed is pinned
// so every plan (and the golden) simulates identical traces.
func suiteConfig(o Options, perRun func(experiments.Key, *sim.Config), salt string, store *runner.CheckpointStore) experiments.Config {
	return experiments.Config{
		Scale:       o.Scale,
		Seed:        1,
		Transfers:   []int{chaosTransfer},
		Parallelism: o.Jobs,
		Timeout:     o.CellTimeout,
		PerRun:      perRun,
		Salt:        salt,
		Checkpoints: store,
	}
}

// plan carries one fault plan's target and counts the runs its PerRun hook
// armed, across a kill and its resume.
type plan struct {
	kind     faultKind
	target   experiments.Key
	injected atomic.Int32
}

// perRun is the suite hook that injects the plan's fault into its target cell.
func (p *plan) perRun(k experiments.Key, cfg *sim.Config) {
	if k != p.target {
		return
	}
	p.injected.Add(1)
	switch p.kind {
	case faultStall:
		// Drop every release by every processor; with any lock contention,
		// whoever acquires first keeps the lock and the waiters starve. The
		// tightened watchdog threshold keeps the doomed run short.
		drops := make([]check.LockDrop, 32)
		for i := range drops {
			drops[i] = check.LockDrop{Proc: i, Nth: -1}
		}
		cfg.WatchdogCycles = 50_000
		cfg.Faults = &check.Plan{DropReleases: drops}
	case faultSpin:
		cfg.Faults = &check.Plan{Spins: []check.Spin{{Proc: 0, OnFill: 0}}}
	case faultViolation:
		cfg.CheckInvariants = true
		cfg.Faults = &check.Plan{Flips: []check.StateFlip{
			{Proc: 0, To: cache.Modified, OnFill: -1},
		}}
	case faultPanic:
		panic(fmt.Sprintf("chaos: injected panic in %v", k))
	}
}

// pickTarget chooses the cell a plan poisons. Two kinds constrain the choice:
// a dropped release needs lock traffic (mp3d is barrier-only), and the
// state-flip recipe is pinned to the configuration the coherence checker is
// proven to catch at small scales (mp3d under NP shares its cells heavily, so
// forcing a fill to Modified while another processor holds the line trips
// owner-with-sharers immediately).
func pickTarget(kind faultKind, rng *rand.Rand) experiments.Key {
	strategies := prefetch.Strategies()
	k := experiments.Key{Strategy: strategies[rng.Intn(len(strategies))], Transfer: chaosTransfer}
	switch kind {
	case faultViolation:
		return experiments.Key{Workload: "mp3d", Strategy: prefetch.NP, Transfer: chaosTransfer}
	case faultStall:
		locky := []string{"water", "pverify", "locus", "topopt"}
		k.Workload = locky[rng.Intn(len(locky))]
	default:
		names := experiments.WorkloadNames()
		k.Workload = names[rng.Intn(len(names))]
	}
	return k
}

// runPlan executes one fault plan end to end and asserts its contract.
func runPlan(ctx context.Context, o Options, rep *Report, golden string, keys []experiments.Key, idx int, kind faultKind, rng *rand.Rand, dir string) error {
	p := &plan{kind: kind, target: pickTarget(kind, rng)}
	perRun := p.perRun
	salt := fmt.Sprintf("chaos/%s/plan-%d", kind, idx)
	if kind == faultNone {
		perRun = nil
		p.target = experiments.Key{}
	}
	doKill := rng.Intn(3) > 0
	wantTorn := doKill && rng.Intn(2) == 0
	killAfter := 1 + rng.Intn(len(keys)/2)

	store, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		return err
	}
	s := experiments.NewSuite(suiteConfig(o, perRun, salt, store))
	o.Log("chaos: plan %d: fault=%s target=%v kill=%v(after %d cells) torn=%v", idx, kind, p.target, doKill, killAfter, wantTorn)

	killed := false
	if doKill {
		kctx, cancel := context.WithCancel(ctx)
		err := s.Prewarm(kctx, keys, func(done, total int) {
			if done >= killAfter {
				cancel()
			}
		})
		cancel()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, context.Canceled) {
			killed = true
			rep.Kills++
			if wantTorn {
				torn, terr := tearOne(dir, rng)
				if terr != nil {
					return terr
				}
				if torn {
					rep.TornWrites++
				}
			}
			// Resume the way a fresh process would: reopen the store on the
			// same directory and rebuild the suite from scratch.
			if store, err = runner.OpenCheckpointStore(dir); err != nil {
				return err
			}
			s = experiments.NewSuite(suiteConfig(o, perRun, salt, store))
			rep.Resumes++
		}
		// A sweep that finished before the kill fired is just an unkilled
		// plan; the final Prewarm below re-reports its memoized outcome.
	}

	ferr := s.Prewarm(ctx, keys, nil)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	failed, err := p.assert(ferr)
	if err != nil {
		return err
	}
	if killed {
		rep.CheckpointHits += int(store.Stats().Hits)
	}
	rep.Injected += int(p.injected.Load())
	rep.Failed += failed

	// Recovery: a fault-free sweep opened on the same store with the same
	// salt, the way a fresh process would, restores every cell the plan
	// completed, recomputes only the failed one, and renders exactly the
	// fault-free bytes, whatever mix of kills, checkpoint restores and
	// quarantined torn entries the plan went through.
	if store, err = runner.OpenCheckpointStore(dir); err != nil {
		return err
	}
	rs := experiments.NewSuite(suiteConfig(o, nil, salt, store))
	if err := rs.Prewarm(ctx, keys, nil); err != nil {
		return fmt.Errorf("fault-free recovery sweep failed: %w", err)
	}
	if n := store.Stats().Misses; n != uint64(failed) {
		return fmt.Errorf("recovery recomputed %d cell(s), want %d", n, failed)
	}
	out, err := rs.RenderSections(ctx, wantTable2)
	if err != nil {
		return fmt.Errorf("rendering after recovery: %w", err)
	}
	if out != golden {
		return fmt.Errorf("recovered render diverges from the fault-free golden (%d vs %d bytes)", len(out), len(golden))
	}

	corrupt, err := store.Verify()
	if err != nil {
		return fmt.Errorf("verifying store: %w", err)
	}
	if len(corrupt) > 0 {
		return fmt.Errorf("store left corrupt after the plan: %v", corrupt)
	}
	return nil
}

// assert checks one plan's sweep outcome against its fault kind and returns
// how many cells failed: none for the control, exactly the target for a
// faulted plan, with the error and class its fault must produce.
func (p *plan) assert(ferr error) (int, error) {
	if p.kind == faultNone {
		if ferr != nil {
			return 0, fmt.Errorf("fault-free plan failed: %w", ferr)
		}
		return 0, nil
	}
	var cells *experiments.CellErrors
	if !errors.As(ferr, &cells) {
		return 0, fmt.Errorf("faulted plan returned %T (%v), want *experiments.CellErrors", ferr, ferr)
	}
	if len(cells.Cells) != 1 || cells.Cells[0].Key != p.target {
		return 0, fmt.Errorf("faulted plan failed cells %v, want exactly %v", cells.Cells, p.target)
	}
	ce := cells.Cells[0]
	var (
		match    bool
		want     string
		terminal = true
	)
	switch p.kind {
	case faultStall:
		match, want = errors.As(ce.Err, new(*check.StallError)), "*check.StallError"
	case faultSpin:
		match, want, terminal = errors.Is(ce.Err, context.DeadlineExceeded), "context.DeadlineExceeded", false
	case faultViolation:
		match, want = errors.As(ce.Err, new(*check.Violation)), "*check.Violation"
	case faultPanic:
		match, want = errors.As(ce.Err, new(*runner.PanicError)), "*runner.PanicError"
	}
	if !match {
		return 0, fmt.Errorf("%s plan failed with %T (%v), want %s", p.kind, ce.Err, ce.Err, want)
	}
	if ce.Terminal != terminal {
		return 0, fmt.Errorf("%s plan's failure classified terminal=%t, want %t: %v", p.kind, ce.Terminal, terminal, ce.Err)
	}
	return 1, nil
}

// tearOne flips one random bit of one random checkpoint entry on disk — the
// torn or bit-rotted write the store's CRC discipline must quarantine on the
// next read. It reports whether a file was actually corrupted: a kill can
// land before any entry was written.
func tearOne(dir string, rng *rand.Rand) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return false, nil
	}
	name := filepath.Join(dir, files[rng.Intn(len(files))])
	data, err := os.ReadFile(name)
	if err != nil {
		return false, err
	}
	torn, _ := check.NewInjector(rng.Int63()).FlipBit(data, -1)
	if err := os.WriteFile(name, torn, 0o644); err != nil {
		return false, err
	}
	return true, nil
}
