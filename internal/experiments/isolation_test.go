package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"busprefetch/internal/cache"
	"busprefetch/internal/check"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
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
	rows, err := s.Figure1()
	if err != nil {
		t.Fatalf("Figure1 failed outright: %v", err)
	}
	var failed, healthy int
	for _, r := range rows {
		if r.Err != "" {
			failed++
			if r.Workload != bad.Workload || r.Strategy != bad.Strategy {
				t.Errorf("unexpected failed cell %s/%s: %s", r.Workload, r.Strategy, r.Err)
			}
		} else {
			healthy++
		}
	}
	if failed != 1 {
		t.Errorf("%d failed rows, want exactly 1", failed)
	}
	if healthy == 0 {
		t.Error("no healthy rows rendered")
	}
	out := RenderFigure1(rows)
	if !strings.Contains(out, "—") {
		t.Errorf("render has no placeholder for the failed cell:\n%s", out)
	}
	if !strings.Contains(out, "check:") {
		t.Errorf("render does not annotate the failure:\n%s", out)
	}
	if !strings.Contains(out, "water") {
		t.Errorf("render lost the healthy workloads:\n%s", out)
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
	}
}
