package experiments

import (
	"context"
	"strings"
	"testing"

	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
)

// These tests pin the zero-baseline guard that Figure 2 and Table 5 share: a
// degenerate run whose NP baseline finished in zero cycles (an empty trace
// does) must surface as an annotated failed cell, never as a NaN in a chart.
// The zero-cycle results are injected straight into the suite's memo table
// so no simulator change can silently un-cover the guard.

// seedResult plants a memoized result for one cell.
func seedResult(s *Suite, k Key, cycles uint64) {
	s.cells.Do(context.Background(), k, func() (*sim.Result, bool, error) {
		return &sim.Result{Cycles: cycles}, true, nil
	})
}

func TestFigure2ZeroCycleBaseline(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}})
	for _, wl := range WorkloadNames() {
		for _, st := range prefetch.Strategies() {
			cycles := uint64(100)
			if st == prefetch.NP {
				cycles = 0
			}
			seedResult(s, Key{Workload: wl, Strategy: st, Transfer: 8}, cycles)
		}
	}
	got, err := s.RenderSections(context.Background(), only("fig2"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "NaN") {
		t.Errorf("rendered Figure 2 contains NaN:\n%s", got)
	}
	for _, wl := range WorkloadNames() {
		if !strings.Contains(got, "Figure 2 ("+wl+"): omitted, cells failed") {
			t.Errorf("%s: zero-cycle NP baseline did not omit the chart:\n%s", wl, got)
		}
	}
	// One note per prefetching strategy and workload explains the baseline.
	if n := strings.Count(got, ": NP baseline ran 0 cycles\n"); n != 20 {
		t.Errorf("%d notes explain the failed baseline, want 20:\n%s", n, got)
	}
}

func TestTable5ZeroCycleBaseline(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}})
	for _, wl := range []string{"topopt", "pverify"} {
		seedResult(s, Key{Workload: wl, Strategy: prefetch.NP, Transfer: 8, Restructured: true}, 0)
		for _, st := range []prefetch.Strategy{prefetch.PREF, prefetch.PWS} {
			seedResult(s, Key{Workload: wl, Strategy: st, Transfer: 8, Restructured: true}, 100)
		}
	}
	got, err := s.RenderSections(context.Background(), only("table5"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "NaN") {
		t.Errorf("rendered Table 5 contains NaN:\n%s", got)
	}
	rows := 0
	for _, line := range strings.Split(got, "\n") {
		if f := strings.Fields(line); len(f) == 3 && (f[0] == "topopt" || f[0] == "pverify") {
			rows++
			if f[2] != "—" {
				t.Errorf("zero-cycle NP baseline produced a clean row %q", line)
			}
		}
	}
	if rows != 4 {
		t.Errorf("%d PREF and PWS rows, want 4:\n%s", rows, got)
	}
	if n := strings.Count(got, ": NP baseline ran 0 cycles\n"); n != 4 {
		t.Errorf("%d notes explain the failed baseline, want 4:\n%s", n, got)
	}
}
