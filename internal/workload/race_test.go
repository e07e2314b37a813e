package workload

import (
	"sync"
	"testing"
)

// TestConcurrentGenerateNoSharedState is the regression test for
// cross-goroutine builder sharing. The parallel experiment engine generates
// traces from worker goroutines (one plan per cache key, but different keys
// of the same workload run concurrently, and every drain emits in its own
// goroutine), so generation must not share mutable builder or RNG state
// across calls. Run under -race this fails the
// moment such sharing returns; without -race it still verifies that
// concurrent generations are bit-for-bit deterministic and produce disjoint
// trace objects.
func TestConcurrentGenerateNoSharedState(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			const goroutines = 6
			traces := make([]*traceFingerprint, goroutines)
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// The same *Workload value, concurrently — exactly what
					// the engine's trace cache does for the original and
					// restructured variants of one workload.
					tr, _, err := generate(w, Params{Scale: 0.05, Seed: 7, Restructured: i%2 == 1})
					if err != nil {
						t.Errorf("generation %d: %v", i, err)
						return
					}
					traces[i] = &traceFingerprint{tr.DemandRefs(), tr.Events(), tr.Procs()}
				}(i)
			}
			wg.Wait()
			// Same parameters => identical traces, independent of interleaving.
			for i := 2; i < goroutines; i++ {
				if traces[i] == nil || traces[i%2] == nil {
					continue
				}
				if *traces[i] != *traces[i%2] {
					t.Errorf("generation %d produced %+v, generation %d produced %+v",
						i, *traces[i], i%2, *traces[i%2])
				}
			}
		})
	}
}

// traceFingerprint is a comparable fingerprint of a generated trace.
type traceFingerprint struct {
	demandRefs int
	events     int
	procs      int
}
