package busprefetch

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus microbenchmarks of the simulator core. Each
// table/figure benchmark regenerates its experiment at reduced scale and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper end to end. Absolute cycle counts depend on this
// reproduction's synthetic workloads; the *shape* — who wins, by roughly
// what factor, where the crossovers fall — is the result being regenerated
// (see EXPERIMENTS.md for the paper-vs-measured comparison).

import (
	"context"
	"fmt"
	"testing"

	"busprefetch/internal/experiments"
	"busprefetch/internal/memory"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// benchScale keeps each experiment benchmark to a few seconds per iteration.
const benchScale = 0.2

func newBenchSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Config{Scale: benchScale, Seed: 1})
}

// BenchmarkTable1 regenerates the workload-characteristics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkFigure1 regenerates the miss-rate comparison at the 8-cycle
// transfer latency and reports mp3d's NP and PREF CPU miss rates.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "mp3d" && r.Strategy == prefetch.NP {
				b.ReportMetric(r.CPUMR, "mp3d-NP-cpuMR")
			}
			if r.Workload == "mp3d" && r.Strategy == prefetch.PREF {
				b.ReportMetric(r.TotalMR, "mp3d-PREF-totalMR")
			}
		}
	}
}

// BenchmarkTable2 regenerates the bus-utilization table and reports the
// mp3d/PREF utilization at the 8-cycle transfer.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "mp3d" && r.Strategy == prefetch.PREF && r.Transfer == 8 {
				b.ReportMetric(r.BusUtil, "mp3d-PREF-busutil-T8")
			}
		}
	}
}

// BenchmarkFigure2 regenerates the execution-time sweep and reports the
// best and worst relative times across all workloads and strategies — the
// paper's headline "speedups no greater than X, degradations up to Y".
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		best, worst := 1.0, 1.0
		for _, r := range rows {
			if r.RelTime < best {
				best = r.RelTime
			}
			if r.RelTime > worst {
				worst = r.RelTime
			}
		}
		b.ReportMetric(best, "best-rel-time")
		b.ReportMetric(worst, "worst-rel-time")
	}
}

// BenchmarkUtilization regenerates the §4.2 processor-utilization numbers.
func BenchmarkUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Utilization()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "water" {
				b.ReportMetric(r.FastBus, "water-util-T4")
			}
			if r.Workload == "mp3d" {
				b.ReportMetric(r.FastBus, "mp3d-util-T4")
			}
		}
	}
}

// BenchmarkFigure3 regenerates the CPU-miss component breakdown and reports
// pverify's invalidation share under NP.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "pverify" && r.Strategy == prefetch.NP {
				total := 0.0
				for _, v := range r.Components {
					total += v
				}
				inval := r.Components[sim.InvalNotPref] + r.Components[sim.InvalPref]
				if total > 0 {
					b.ReportMetric(inval/total, "pverify-inval-share")
				}
			}
		}
	}
}

// BenchmarkTable3 regenerates the invalidation / false-sharing rates.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "mp3d" {
				b.ReportMetric(r.FSShare, "mp3d-FS-share")
			}
		}
	}
}

// BenchmarkTable4 regenerates the restructured-program miss rates and
// reports topopt's false-sharing reduction factor.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var origFS, restrFS float64
		for _, r := range rows {
			if r.Workload == "topopt" && r.Strategy == prefetch.NP {
				if r.Restructured {
					restrFS = r.FalseShareMR
				} else {
					origFS = r.FalseShareMR
				}
			}
		}
		if restrFS > 0 {
			b.ReportMetric(origFS/restrFS, "topopt-FS-reduction")
		}
	}
}

// BenchmarkTable5 regenerates the restructured relative execution times and
// reports how close PREF gets to PWS after restructuring (the paper's
// conclusion: they converge).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		var pref, pws float64
		for _, r := range rows {
			if r.Workload == "pverify" && r.Transfer == 8 {
				switch r.Strategy {
				case prefetch.PREF:
					pref = r.RelTime
				case prefetch.PWS:
					pws = r.RelTime
				}
			}
		}
		if pws > 0 {
			b.ReportMetric(pref/pws, "pverify-PREF-over-PWS")
		}
	}
}

// BenchmarkAblations regenerates the configuration-sensitivity studies the
// paper describes in prose (cache size, line size, victim cache, protocol,
// prefetch placement) and reports their headline deltas.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		cacheRows, err := s.AblationCacheSize(context.Background(), "mp3d", []int{16, 128})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cacheRows[1].InvalShare-cacheRows[0].InvalShare, "inval-share-gain-128KB")
		lineRows, err := s.AblationLineSize(context.Background(), "mp3d", []int{16, 64})
		if err != nil {
			b.Fatal(err)
		}
		if lineRows[0].FSMR > 0 {
			b.ReportMetric(lineRows[1].FSMR/lineRows[0].FSMR, "FS-growth-64B")
		}
		placeRows, err := s.AblationPrefetchPlacement(context.Background(), "mp3d")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(placeRows[2].RelTime-placeRows[1].RelTime, "buffer-vs-cache-gap")
	}
}

// benchTrace materializes workload name's trace at scale 0.2, seed 1,
// annotated under strat, so a timed loop replays it from memory and
// measures the simulator alone.
func benchTrace(b *testing.B, name string, strat prefetch.Strategy) *trace.Trace {
	b.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	src, _, err := w.Source(workload.Params{Scale: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src, err = prefetch.AnnotateSource(src, prefetch.Options{Strategy: strat, Geometry: memory.DefaultGeometry()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Materialize(src)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkSimulator measures raw simulation throughput (events/sec) on the
// mp3d workload — the performance of the Charlie-analogue core.
func BenchmarkSimulator(b *testing.B) {
	tr := benchTrace(b, "mp3d", prefetch.NP)
	cfg := sim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSource(cfg, trace.FromTrace(tr)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Events()*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkObsOverhead measures the observability recorder's cost on the
// BenchmarkSimulator workload at each recording level. "disabled" is what
// single runs pay (busprefetch.Run, prefetchsim, the server's runs) and is
// required to stay within 2% of BenchmarkSimulator — the hot paths guard
// every hook behind a nil check. "summary" is what every suite cell pays,
// so CI gates it against the merge-base too. Compare with:
//
//	go test -bench 'BenchmarkSimulator$|BenchmarkObsOverhead' -count 10
func BenchmarkObsOverhead(b *testing.B) {
	tr := benchTrace(b, "mp3d", prefetch.PREF)
	cfg := sim.DefaultConfig()
	for _, bc := range []struct {
		name string
		rec  func() *obs.Recorder
	}{
		{"disabled", func() *obs.Recorder { return nil }},
		{"summary", func() *obs.Recorder { return obs.New(tr.Procs(), obs.Options{}) }},
		{"spans", func() *obs.Recorder { return obs.New(tr.Procs(), obs.Options{Spans: true}) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCfg := cfg
				runCfg.Obs = bc.rec()
				if _, err := sim.RunSource(runCfg, trace.FromTrace(tr)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Events()*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkOnlineOverhead measures the online-prefetcher kernel's cost on
// the BenchmarkSimulator workload (the bare demand stream an online run
// replays). "none" is the oracle path — no engine configured — and is the
// regression gate for the zero-overhead-when-disabled guarantee: every
// online hook hides behind a nil engine check, so its ns/op must track
// BenchmarkSimulator (CI gates it against the merge-base). The engine
// variants price each training structure's per-reference Observe cost.
// Compare with:
//
//	go test -bench 'BenchmarkSimulator$|BenchmarkOnlineOverhead' -count 10
func BenchmarkOnlineOverhead(b *testing.B) {
	tr := benchTrace(b, "mp3d", prefetch.NP)
	cfg := sim.DefaultConfig()
	for _, bc := range []struct {
		name   string
		online prefetch.OnlineConfig
	}{
		{"none", prefetch.OnlineConfig{}},
		{"stride", prefetch.OnlineConfig{Kind: prefetch.Stride, Strategy: prefetch.PREF}},
		{"temporal", prefetch.OnlineConfig{Kind: prefetch.Temporal, Strategy: prefetch.PREF}},
		{"pointer", prefetch.OnlineConfig{Kind: prefetch.Pointer, Strategy: prefetch.PREF}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCfg := cfg
				runCfg.Online = bc.online
				if _, err := sim.RunSource(runCfg, trace.FromTrace(tr)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Events()*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkAnnotate measures offline prefetch-insertion throughput: the
// PWS annotator, sharing pre-pass included, drained over an in-memory
// pverify trace.
func BenchmarkAnnotate(b *testing.B) {
	tr := benchTrace(b, "pverify", prefetch.NP)
	geom := memory.DefaultGeometry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := prefetch.AnnotateSource(trace.FromTrace(tr), prefetch.Options{Strategy: prefetch.PWS, Geometry: geom}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := trace.CountEvents(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures workload generator throughput, draining
// every processor's streamed events.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, name := range []string{"topopt", "mp3d", "water"} {
		b.Run(name, func(b *testing.B) {
			w, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				src, _, err := w.Source(workload.Params{Scale: 0.2, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := trace.CountEvents(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrategySweep runs all five strategies on one workload (the
// shape of Figure 2's per-workload panel) and reports each relative time.
func BenchmarkStrategySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := Compare(RunSpec{Workload: "pverify", Transfer: 4, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Strategy != "NP" {
				b.ReportMetric(r.RelativeTime, fmt.Sprintf("rel-%s", r.Strategy))
			}
		}
	}
}
