package prefetch_test

import (
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// Property tests for the annotation pipeline, asserted over every workload
// and every strategy rather than at hand-picked points.

func generateAll(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	traces := make(map[string]*trace.Trace)
	for _, w := range workload.All() {
		src, _, err := w.Source(workload.Params{Scale: 0.05, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tr, err := trace.Materialize(src)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		traces[w.Name] = tr
	}
	return traces
}

// annotateWith runs prefetcher k's shipping annotator over base and
// materializes the result.
func annotateWith(k prefetch.Kind, base *trace.Trace, opt prefetch.Options) (*trace.Trace, error) {
	src, err := prefetch.ByKind(k).AnnotateSource(trace.FromTrace(base), opt, nil)
	if err != nil {
		return nil, err
	}
	return trace.Materialize(src)
}

// demandOnly strips a stream to its demand references.
func demandOnly(s trace.Stream) []trace.Event {
	var out []trace.Event
	for _, e := range s {
		if e.Kind.IsDemand() {
			out = append(out, trace.Event{Kind: e.Kind, Addr: e.Addr})
		}
	}
	return out
}

// TestAnnotatePreservesDemandStream: inserting prefetches must not add,
// drop, reorder or retarget a single demand reference — the workload's
// computation is fixed; only hints are added.
func TestAnnotatePreservesDemandStream(t *testing.T) {
	for name, base := range generateAll(t) {
		for _, st := range prefetch.Strategies() {
			annotated, err := annotateWith(prefetch.Oracle, base, prefetch.Options{Strategy: st, Geometry: memory.DefaultGeometry()})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, st, err)
			}
			if annotated.Procs() != base.Procs() {
				t.Errorf("%s/%s: proc count changed", name, st)
				continue
			}
			for p := range base.Streams {
				want := demandOnly(base.Streams[p])
				got := demandOnly(annotated.Streams[p])
				if len(want) != len(got) {
					t.Errorf("%s/%s proc %d: demand refs %d -> %d", name, st, p, len(want), len(got))
					continue
				}
				for i := range want {
					if want[i] != got[i] {
						t.Errorf("%s/%s proc %d: demand ref %d changed from %v to %v",
							name, st, p, i, want[i], got[i])
						break
					}
				}
			}
			// Non-NP strategies must actually insert prefetches somewhere.
			if st != prefetch.NP && annotated.Events() <= base.Events() {
				t.Errorf("%s/%s: no prefetches inserted", name, st)
			}
			if st == prefetch.NP && annotated.Events() != base.Events() {
				t.Errorf("%s/NP: event count changed on a no-op annotation", name)
			}
		}
	}
}

// TestMissRateOrdering is the paper's metric hierarchy as an invariant. For
// every workload and strategy:
//
//	adjusted CPU miss rate <= CPU miss rate <= total miss rate
//
// (adjusted drops prefetch-in-progress misses; total adds the misses
// prefetch bus traffic causes on top of CPU misses), plus the sharing
// hierarchy: false-sharing misses are a subset of invalidation misses,
// which are a subset of CPU misses.
func TestMissRateOrdering(t *testing.T) {
	for name, base := range generateAll(t) {
		for _, st := range prefetch.Strategies() {
			annotated, err := annotateWith(prefetch.Oracle, base, prefetch.Options{Strategy: st, Geometry: memory.DefaultGeometry()})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, st, err)
			}
			res, err := sim.RunSource(sim.DefaultConfig(), trace.FromTrace(annotated))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, st, err)
			}
			adj, cpu, total := res.AdjustedCPUMissRate(), res.CPUMissRate(), res.TotalMissRate()
			if adj > cpu {
				t.Errorf("%s/%s: adjusted MR %.6f above CPU MR %.6f", name, st, adj, cpu)
			}
			if cpu > total {
				t.Errorf("%s/%s: CPU MR %.6f above total MR %.6f", name, st, cpu, total)
			}
			c := &res.Counters
			if c.FalseSharing > c.InvalidationMisses() {
				t.Errorf("%s/%s: false-sharing misses %d exceed invalidation misses %d",
					name, st, c.FalseSharing, c.InvalidationMisses())
			}
			if c.InvalidationMisses() > c.TotalCPUMisses() {
				t.Errorf("%s/%s: invalidation misses %d exceed CPU misses %d",
					name, st, c.InvalidationMisses(), c.TotalCPUMisses())
			}
			if total > 0 && res.Cycles == 0 {
				t.Errorf("%s/%s: misses with zero execution time", name, st)
			}
		}
	}
}
