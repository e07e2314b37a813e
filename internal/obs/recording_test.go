package obs_test

import (
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// maxSummaryAllocs bounds what a summary recorder adds to one run's
// allocations: the recorder, its per-processor lifetime tables as they
// grow to their peak, the bus counters, the observer and the Summary. None
// of it grows with the run's prefetches or bus grants.
const maxSummaryAllocs = 100

// TestSummaryRecordingAllocationsBounded runs one prefetching mp3d trace
// with and without a summary recorder: the recorder may add at most
// maxSummaryAllocs allocations to the run, however many prefetches it
// tracks and grants it counts. Every suite cell records, so a per-event
// allocation here would cost every cell of the report.
func TestSummaryRecordingAllocationsBounded(t *testing.T) {
	w, err := workload.ByName("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := w.Source(workload.Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err = prefetch.AnnotateSource(src, prefetch.Options{Strategy: prefetch.PREF, Geometry: memory.DefaultGeometry()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	var res *sim.Result
	run := func(rec func() *obs.Recorder) float64 {
		return testing.AllocsPerRun(3, func() {
			cfg := sim.DefaultConfig()
			cfg.Obs = rec()
			if res, err = sim.RunSource(cfg, trace.FromTrace(tr)); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := run(func() *obs.Recorder { return nil })
	on := run(func() *obs.Recorder { return obs.New(tr.Procs(), obs.Options{}) })
	// The trace must give a per-prefetch allocation room to show.
	if n := res.Counters.PrefetchFetches; n < 10*maxSummaryAllocs {
		t.Fatalf("only %d prefetch fetches; the trace is too small to bound per-prefetch allocations", n)
	}
	t.Logf("%.0f allocations with a summary recorder, %.0f without", on, off)
	if on-off > maxSummaryAllocs {
		t.Fatalf("a summary recorder added %.0f allocations to the run (%.0f with, %.0f without), want at most %d",
			on-off, on, off, maxSummaryAllocs)
	}
}
