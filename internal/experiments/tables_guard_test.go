package experiments

import (
	"context"
	"strings"
	"testing"

	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
)

// These tests pin the zero-baseline guards in Figure2 and Table5: a
// degenerate run whose NP baseline finished in zero cycles (an empty trace
// does) must surface as an annotated error row, never as a NaN in a chart.
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
	rows, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Err == "" {
			t.Errorf("%s/%s: zero-cycle NP baseline produced a clean row (RelTime %v)", r.Workload, r.Strategy, r.RelTime)
		}
	}
	got := RenderFigure2(rows, s.cfg.Transfers)
	if strings.Contains(got, "NaN") {
		t.Errorf("rendered Figure 2 contains NaN:\n%s", got)
	}
	if !strings.Contains(got, "0 cycles") {
		t.Errorf("rendered Figure 2 does not explain the failed baseline:\n%s", got)
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
	rows, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Err == "" {
			t.Errorf("%s/%s: zero-cycle NP baseline produced a clean row (RelTime %v)", r.Workload, r.Strategy, r.RelTime)
		}
	}
	got := RenderTable5(rows, s.cfg.Transfers)
	if strings.Contains(got, "NaN") {
		t.Errorf("rendered Table 5 contains NaN:\n%s", got)
	}
}
