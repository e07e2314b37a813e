package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"busprefetch/internal/runner"
)

// obsRender runs the observability slice on a reduced suite at the given
// parallelism and returns the rendered section.
func obsRender(t *testing.T, jobs int) string {
	t.Helper()
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}, Parallelism: jobs})
	got, err := s.RenderSections(context.Background(), func(name string) bool { return name == "observability" })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestObservabilityDeterministicAcrossWorkerCounts is the acceptance bar the
// issue names: the recorded section is byte-identical at -jobs 1 and
// -jobs 8.
func TestObservabilityDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := obsRender(t, 1)
	parallel := obsRender(t, 8)
	if serial != parallel {
		t.Errorf("observability section differs across worker counts:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Observability: prefetch lifetimes") {
		t.Fatalf("section missing title:\n%s", serial)
	}
}

func TestObservabilityCells(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Transfers: []int{8}})
	keys := s.obsKeys(Figure3Workloads())
	res, err := s.results(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Figure3Workloads()) * 4; len(keys) != want {
		t.Fatalf("got %d cells, want %d", len(keys), want)
	}
	// Canonical order: workload-major over Figure3Workloads × PREF, EXCL,
	// LPD, PWS.
	if first, last := keys[0].String(), keys[len(keys)-1].String(); first != "topopt/PREF/T=8" || last != "mp3d/PWS/T=8" {
		t.Errorf("cells out of canonical order: first %s, last %s", first, last)
	}
	for i, k := range keys {
		sum := res[i].Obs
		if sum == nil {
			t.Fatalf("%v: nil summary", k)
		}
		if sum.LifetimesTotal() == 0 {
			t.Errorf("%v: no prefetch lifetimes recorded for a prefetching strategy", k)
		}
		if sum.IssueToFill.Samples == 0 {
			t.Errorf("%v: no issue→fill samples", k)
		}
	}
	// The metrics report carries each cell's summary under its label, and
	// the suite's effective seed: the zero Seed selects seed 1.
	m, err := s.Metrics(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scale != 0.05 || m.Seed != 1 || len(m.Cells) != len(keys) || m.Errors != nil {
		t.Fatalf("metrics report: scale %v seed %v, %d cells, errors %v", m.Scale, m.Seed, len(m.Cells), m.Errors)
	}
	for i, k := range keys {
		label := fmt.Sprintf("%s/%s/%d", k.Workload, k.Strategy, k.Transfer)
		if !slices.ContainsFunc(m.Cells, func(c runner.CellMetrics) bool { return c.Cell == label && c.Summary == res[i].Obs }) {
			t.Errorf("metrics report lacks %s's summary", label)
		}
	}
}

// TestGoldenObsT8 pins the scale-1 observability section — prefetch-latency
// percentiles and lifetime-class shares for PREF/EXCL/LPD/PWS at T=8 — the
// way the other golden slices pin the paper tables.
func TestGoldenObsT8(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 observability slice in -short mode")
	}
	s := NewSuite(Config{Scale: 1, Seed: 1})
	got, err := s.RenderSections(context.Background(), func(name string) bool { return name == "observability" })
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_obs_t8.txt", got)
}
