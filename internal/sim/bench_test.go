package sim_test

import (
	"reflect"
	"testing"

	"busprefetch/internal/bus"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// BenchmarkFullCell is the kernel's headline microbenchmark: one full
// experiment cell (mp3d, PREF annotation, 8-cycle transfer) simulated end to
// end, the unit of work every table and figure of the paper is assembled
// from. The perf CI job gates on this benchmark regressing more than 10%
// against the merge-base, and PERFORMANCE.md records its trajectory.
//
// The benchmark body is benchCell, a plain function; TestFullCellBodyMatchesSim
// asserts in normal `go test` mode that it returns a Result byte-identical to
// the non-benchmark path, so the benchmarked cell can never drift from the
// simulated semantics.

// benchCellTrace materializes the benchmark cell's annotated trace (see
// benchCellSource), so the timed loop replays it from memory and measures
// the simulator alone.
func benchCellTrace(tb testing.TB) (*trace.Trace, sim.Config) {
	tb.Helper()
	src, cfg := benchCellSource(tb)
	tr, err := trace.Materialize(src)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, cfg
}

func BenchmarkFullCell(b *testing.B) {
	tr, cfg := benchCellTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSource(cfg, trace.FromTrace(tr))
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles == 0 {
			b.Fatal("empty simulation")
		}
	}
	reportEvents(b, tr.Events()*b.N)
}

// reportEvents reports the events a benchmark simulated or drained: per
// second, which moves with the host, and per operation, which is
// deterministic and so shows whether two runs timed the same work.
func reportEvents(b *testing.B, events int) {
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// TestFullCellBodyMatchesSim runs the benchmark body once under normal `go
// test` and asserts its Result is identical to the non-benchmark path — a
// fresh run on an independently generated trace of the same cell. Any
// drift between what BenchmarkFullCell times and what the experiment suite
// simulates fails here, not in a timing report.
func TestFullCellBodyMatchesSim(t *testing.T) {
	tr, cfg := benchCellTrace(t)
	bench, err := sim.RunSource(cfg, trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	tr2, cfg2 := benchCellTrace(t)
	direct, err := sim.RunSource(cfg2, trace.FromTrace(tr2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench, direct) {
		t.Errorf("benchmark-path Result differs from non-benchmark path:\nbench:  %+v\ndirect: %+v", bench, direct)
	}
}

// benchCellSource plans the benchmark cell as a fused streaming pipeline:
// the mp3d generator feeding the PREF oracle annotator, no materialized
// trace anywhere.
func benchCellSource(tb testing.TB) (trace.Source, sim.Config) {
	tb.Helper()
	w, err := workload.ByName("mp3d")
	if err != nil {
		tb.Fatal(err)
	}
	src, _, err := w.Source(workload.Params{Scale: 0.2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.TransferCycles = 8
	annotated, err := prefetch.AnnotateSource(src, prefetch.Options{Strategy: prefetch.PREF, Geometry: cfg.Geometry}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return annotated, cfg
}

// drainCell drains every processor stream of src to completion, returning
// the total event count — the generate→annotate hot path with no simulator
// behind it, which is what the streaming seam itself costs.
func drainCell(src trace.Source) int {
	events := 0
	for p := 0; p < src.Procs(); p++ {
		for chunk := range src.Events(p) {
			events += len(chunk)
		}
	}
	return events
}

// BenchmarkStreamingCell times the fused generate-into-annotate hot path of
// the benchmark cell: the mp3d generator and the PREF oracle annotator run
// as nested loops on the draining goroutine, each refilling one pooled
// 4096-event buffer, and the chunks are drained at the simulator's seam
// with no read-ahead goroutine. This is the producer side every streamed simulation
// rides on; the perf CI job gates on it regressing more than 10% against
// the merge-base.
func BenchmarkStreamingCell(b *testing.B) {
	src, _ := benchCellSource(b)
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += drainCell(src)
	}
	reportEvents(b, events)
}

// TestStreamingCellBodyMatchesSim is BenchmarkStreamingCell's semantic
// anchor: the streamed cell, simulated chunk by chunk, produces a
// Result byte-identical to the materialized benchmark cell that
// BenchmarkFullCell replays, so neither benchmark can time a pipeline that
// drifts from what the experiments run.
func TestStreamingCellBodyMatchesSim(t *testing.T) {
	src, cfg := benchCellSource(t)
	streamed, err := sim.RunSource(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	tr, cfg2 := benchCellTrace(t)
	direct, err := sim.RunSource(cfg2, trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, direct) {
		t.Errorf("streamed Result differs from materialized path:\nstream: %+v\ndirect: %+v", streamed, direct)
	}
}

// BenchmarkInterconnectOverhead times the same full cell across the fabric
// ladder. The bus variant is the seam-overhead check: it simulates exactly
// what BenchmarkFullCell simulates, but spelled through the Interconnect
// configuration, so the perf CI job can gate the abstraction's cost on the
// single-bus path (the paper-baseline configuration every other benchmark
// and golden runs through).
func BenchmarkInterconnectOverhead(b *testing.B) {
	for _, v := range []struct {
		name string
		ic   interconnect.Config
	}{
		{"bus", interconnect.Config{}},
		{"fcfs", interconnect.Config{Discipline: bus.FCFS}},
		{"dual", interconnect.Config{Kind: interconnect.MultiBus, Links: 2}},
		{"quad", interconnect.Config{Kind: interconnect.MultiBus, Links: 4}},
		{"directory", interconnect.Config{Kind: interconnect.Directory}},
	} {
		b.Run(v.name, func(b *testing.B) {
			tr, cfg := benchCellTrace(b)
			cfg.Interconnect = v.ic
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.RunSource(cfg, trace.FromTrace(tr))
				if err != nil {
					b.Fatal(err)
				}
				if res.Cycles == 0 {
					b.Fatal("empty simulation")
				}
			}
			reportEvents(b, tr.Events()*b.N)
		})
	}
}
