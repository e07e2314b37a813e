package experiments

import (
	"context"
	"testing"
)

// The differential determinism contract: the rendered report is a pure
// function of (scale, seed) — worker count must not change a byte, and the
// seed must actually matter.

// renderAt runs a reduced suite at the given parallelism and returns the
// rendered T=8 sections.
func renderAt(t *testing.T, jobs int, seed int64) string {
	t.Helper()
	s := NewSuite(Config{Scale: 0.05, Seed: seed, Transfers: []int{8}, Parallelism: jobs})
	if err := s.Prewarm(context.Background(), s.KeysFor(t8Sections), nil); err != nil {
		t.Fatal(err)
	}
	out, err := s.RenderSections(context.Background(), t8Sections)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRenderDeterministicAcrossWorkerCounts runs the same reduced suite with
// 1 worker and with 8, and demands byte-identical tables. This is the
// acceptance bar for the parallel engine: sharding is invisible in the
// output.
func TestRenderDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := renderAt(t, 1, 1)
	parallel := renderAt(t, 8, 1)
	if serial != parallel {
		t.Errorf("-jobs=1 and -jobs=8 rendered different reports:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("rendered report is empty")
	}
}

// TestRenderRepeatable: the same configuration twice in one process renders
// identically (no hidden global state, map-iteration order, or timing leaks
// into the report).
func TestRenderRepeatable(t *testing.T) {
	a := renderAt(t, 4, 1)
	b := renderAt(t, 4, 1)
	if a != b {
		t.Error("two runs of the identical configuration rendered different reports")
	}
}

// TestSeedSensitivity guards against the opposite failure: a determinism
// mechanism so aggressive it ignores the seed. Different seeds must change
// the workload traces and therefore the measured numbers.
func TestSeedSensitivity(t *testing.T) {
	seed1 := renderAt(t, 4, 1)
	seed2 := renderAt(t, 4, 2)
	if seed1 == seed2 {
		t.Error("seeds 1 and 2 rendered identical reports; the seed is being dropped somewhere")
	}
}
