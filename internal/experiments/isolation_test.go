package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"busprefetch/internal/cache"
	"busprefetch/internal/check"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
	"busprefetch/internal/workload"
)

// poisonedSuite returns a small suite in which exactly one cell — mp3d/NP/T=8
// — runs with invariant checking and an injected cache-state corruption, so
// that cell (and only that cell) fails with a *check.Violation.
func poisonedSuite() (*Suite, Key) {
	bad := Key{Workload: "mp3d", Strategy: prefetch.NP, Transfer: 8}
	s := NewSuite(Config{
		Scale:     0.1,
		Seed:      1,
		Transfers: []int{8},
		PerRun: func(k Key, cfg *sim.Config) {
			if k == bad {
				cfg.CheckInvariants = true
				cfg.Faults = &check.Plan{Flips: []check.StateFlip{
					{Proc: 0, To: cache.Modified, OnFill: -1},
				}}
			}
		},
	})
	return s, bad
}

func TestPoisonedCellFailsAlone(t *testing.T) {
	s, bad := poisonedSuite()
	if _, err := s.Result(bad); err == nil {
		t.Fatal("poisoned cell succeeded")
	} else {
		var v *check.Violation
		if !errors.As(err, &v) {
			t.Fatalf("poisoned cell error is %T (%v), want *check.Violation", err, err)
		}
	}
	// The same workload under a different strategy is untouched.
	good := Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8}
	if _, err := s.Result(good); err != nil {
		t.Fatalf("healthy cell failed: %v", err)
	}
	// The failure is memoized: asking again returns the same error without
	// re-simulating.
	_, err1 := s.Result(bad)
	_, err2 := s.Result(bad)
	if err1 == nil || err1 != err2 {
		t.Errorf("memoized errors differ: %v vs %v", err1, err2)
	}
}

func TestTableRendersAroundPoisonedCell(t *testing.T) {
	s, bad := poisonedSuite()
	out, err := s.RenderSections(context.Background(), only("fig1"))
	if err != nil {
		t.Fatalf("Figure 1 failed outright: %v", err)
	}
	var failed, healthy int
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || !slices.Contains(WorkloadNames(), f[0]) {
			continue
		}
		if f[2] != "—" {
			healthy++
			continue
		}
		failed++
		if f[0] != bad.Workload || f[1] != bad.Strategy.String() || f[3] != "—" || f[4] != "—" {
			t.Errorf("unexpected failed row %q", line)
		}
	}
	if failed != 1 {
		t.Errorf("%d failed rows, want exactly 1:\n%s", failed, out)
	}
	if healthy != 24 {
		t.Errorf("%d healthy rows, want 24:\n%s", healthy, out)
	}
	if !strings.Contains(out, "  ! mp3d/NP: ") || !strings.Contains(out, "check:") {
		t.Errorf("render does not annotate the failure:\n%s", out)
	}
}

func TestPrewarmReportsCellErrors(t *testing.T) {
	s, bad := poisonedSuite()
	good := Key{Workload: "water", Strategy: prefetch.NP, Transfer: 8}
	err := s.Prewarm(context.Background(), []Key{bad, good}, nil)
	if err == nil {
		t.Fatal("Prewarm with a poisoned cell returned nil")
	}
	var cells *CellErrors
	if !errors.As(err, &cells) {
		t.Fatalf("Prewarm error is %T (%v), want *CellErrors", err, err)
	}
	if len(cells.Cells) != 1 || cells.Cells[0].Key != bad {
		t.Errorf("CellErrors = %v, want just %v", cells, bad)
	} else if !cells.Cells[0].Terminal {
		t.Error("invariant violation classified retryable")
	}
	if !strings.Contains(err.Error(), "1 of the suite's runs failed") {
		t.Errorf("Error() = %q", err.Error())
	}
	// The healthy key prewarmed fine.
	if _, err := s.Result(good); err != nil {
		t.Errorf("healthy cell failed after Prewarm: %v", err)
	}
}

// TestPanickingCellFailsAgain: a cell whose run panics is isolated by the
// pool and not memoized, so a second Prewarm of the same suite runs it
// again and reports the same terminal panic, rather than waiting on the
// first run's abandoned flight.
func TestPanickingCellFailsAgain(t *testing.T) {
	bad := Key{Workload: "mp3d", Strategy: prefetch.NP, Transfer: 8}
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}, PerRun: func(k Key, _ *sim.Config) {
		if k == bad {
			panic("injected")
		}
	}})
	for round := 1; round <= 2; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := s.Prewarm(ctx, []Key{bad}, nil)
		cancel()
		var cells *CellErrors
		var pe *runner.PanicError
		if !errors.As(err, &cells) || len(cells.Cells) != 1 || !errors.As(cells.Cells[0].Err, &pe) {
			t.Fatalf("round %d: Prewarm = %v, want one cell failed with a *runner.PanicError", round, err)
		}
		if !cells.Cells[0].Terminal {
			t.Errorf("round %d: panic classified retryable", round)
		}
	}
}

// TestStalledCellFailsOnce: a cell whose every lock release is dropped
// stalls deterministically, so it is simulated once. It fails alone, with
// the watchdog's *check.StallError classified terminal, and a second
// Prewarm of the same suite reports the memoized failure without running
// the cell again.
func TestStalledCellFailsOnce(t *testing.T) {
	bad := Key{Workload: "water", Strategy: prefetch.NP, Transfer: 8}
	good := Key{Workload: "water", Strategy: prefetch.PREF, Transfer: 8}
	var runs atomic.Int32
	s := NewSuite(Config{Scale: 0.1, Seed: 1, Transfers: []int{8}, PerRun: func(k Key, cfg *sim.Config) {
		if k != bad {
			return
		}
		runs.Add(1)
		drops := make([]check.LockDrop, workload.DefaultProcs)
		for p := range drops {
			drops[p] = check.LockDrop{Proc: p, Nth: -1}
		}
		cfg.WatchdogCycles = 50_000
		cfg.Faults = &check.Plan{DropReleases: drops}
	}})
	for round := 1; round <= 2; round++ {
		err := s.Prewarm(context.Background(), []Key{bad, good}, nil)
		var cells *CellErrors
		if !errors.As(err, &cells) || len(cells.Cells) != 1 || cells.Cells[0].Key != bad {
			t.Fatalf("round %d: Prewarm = %v, want exactly %v failed", round, err, bad)
		}
		ce := cells.Cells[0]
		var stall *check.StallError
		if !errors.As(ce.Err, &stall) {
			t.Fatalf("round %d: cell failed with %T (%v), want *check.StallError", round, ce.Err, ce.Err)
		}
		if !ce.Terminal {
			t.Errorf("round %d: stall classified retryable", round)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("stalled cell simulated %d times, want 1", n)
	}
}

// TestTimedOutCellFailsAlone: a real cell that runs out of its per-cell
// deadline fails alone, classified retryable, and is not checkpointed, so a
// rerun without the deadline recomputes exactly that cell and renders the
// bytes of a clean sweep. No fault is injected: every other cell is in the
// store, and the store is read before the deadline applies, so only the
// target simulates under it.
func TestTimedOutCellFailsAlone(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func(timeout time.Duration) (*Suite, *runner.CheckpointStore) {
		t.Helper()
		store, err := runner.OpenCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := resumeConfig(store)
		cfg.Timeout = timeout
		return NewSuite(cfg), store
	}
	target := Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8}

	warm, _ := open(0)
	keys := warm.GridKeys()
	var others []Key
	for _, k := range keys {
		if k != target {
			others = append(others, k)
		}
	}
	if len(others) != len(keys)-1 {
		t.Fatalf("grid of %d keys does not hold %v", len(keys), target)
	}
	if err := warm.Prewarm(ctx, others, nil); err != nil {
		t.Fatal(err)
	}

	timed, store := open(time.Nanosecond)
	err := timed.Prewarm(ctx, keys, nil)
	var cells *CellErrors
	if !errors.As(err, &cells) || len(cells.Cells) != 1 || cells.Cells[0].Key != target {
		t.Fatalf("Prewarm under a 1ns deadline = %v, want exactly %v failed", err, target)
	}
	ce := cells.Cells[0]
	if !errors.Is(ce.Err, context.DeadlineExceeded) {
		t.Errorf("cell failed with %T (%v), want context.DeadlineExceeded", ce.Err, ce.Err)
	}
	if ce.Terminal {
		t.Error("deadline classified terminal")
	}
	if st := store.Stats(); st.Hits != uint64(len(others)) || st.Puts != 0 {
		t.Errorf("hits=%d puts=%d under the deadline; want %d restored and nothing stored", st.Hits, st.Puts, len(others))
	}

	rerun, store := open(0)
	if err := rerun.Prewarm(ctx, keys, nil); err != nil {
		t.Fatalf("rerun without the deadline failed: %v", err)
	}
	// Read the counters before rendering, which computes Table 2's other
	// transfers.
	if st := store.Stats(); st.Hits != uint64(len(others)) || st.Puts != 1 {
		t.Errorf("rerun hits=%d puts=%d; want %d restored and exactly the timed-out cell recomputed", st.Hits, st.Puts, len(others))
	}
	golden, err := NewSuite(resumeConfig(nil)).RenderSections(ctx, wantTable2Only)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rerun.RenderSections(ctx, wantTable2Only)
	if err != nil {
		t.Fatal(err)
	}
	if out != golden {
		t.Errorf("rerun render diverges from a clean sweep (%d vs %d bytes)", len(out), len(golden))
	}
	if corrupt, err := store.Verify(); err != nil || len(corrupt) > 0 {
		t.Errorf("store after rerun: corrupt=%v err=%v", corrupt, err)
	}
}
