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
	"strings"
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

// benchSection regenerates one report section on a fresh suite, as
// mkfigures -only name prints it, and returns the suite, whose memo then
// holds every cell the section read, and the section's text.
func benchSection(b *testing.B, name string) (*experiments.Suite, string) {
	b.Helper()
	s := newBenchSuite()
	out, err := s.RenderSections(context.Background(), func(n string) bool { return n == name })
	if err != nil {
		b.Fatal(err)
	}
	return s, out
}

// benchCell returns the memoized result of the cell k of s.
func benchCell(b *testing.B, s *experiments.Suite, k experiments.Key) *sim.Result {
	b.Helper()
	res, err := s.Result(k)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1 regenerates the workload-characteristics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, out := benchSection(b, "table1"); strings.Contains(out, "—") {
			b.Fatalf("a workload failed:\n%s", out)
		}
	}
}

// BenchmarkFigure1 regenerates the miss-rate comparison at the 8-cycle
// transfer latency and reports mp3d's NP and PREF CPU miss rates.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "fig1")
		b.ReportMetric(benchCell(b, s, experiments.Key{Workload: "mp3d", Strategy: prefetch.NP, Transfer: 8}).CPUMissRate(), "mp3d-NP-cpuMR")
		b.ReportMetric(benchCell(b, s, experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8}).TotalMissRate(), "mp3d-PREF-totalMR")
	}
}

// BenchmarkTable2 regenerates the bus-utilization table and reports the
// mp3d/PREF utilization at the 8-cycle transfer.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "table2")
		b.ReportMetric(benchCell(b, s, experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8}).BusUtilization(), "mp3d-PREF-busutil-T8")
	}
}

// BenchmarkFigure2 regenerates the execution-time sweep and reports the
// best and worst relative times across all workloads and strategies — the
// paper's headline "speedups no greater than X, degradations up to Y".
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "fig2")
		best, worst := 1.0, 1.0
		for _, wl := range experiments.WorkloadNames() {
			for _, tr := range s.Config().Transfers {
				np := benchCell(b, s, experiments.Key{Workload: wl, Strategy: prefetch.NP, Transfer: tr})
				for _, st := range prefetch.Strategies()[1:] {
					res := benchCell(b, s, experiments.Key{Workload: wl, Strategy: st, Transfer: tr})
					rel := float64(res.Cycles) / float64(np.Cycles)
					best, worst = min(best, rel), max(worst, rel)
				}
			}
		}
		b.ReportMetric(best, "best-rel-time")
		b.ReportMetric(worst, "worst-rel-time")
	}
}

// BenchmarkUtilization regenerates the §4.2 processor-utilization numbers.
func BenchmarkUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "util")
		for _, wl := range []string{"water", "mp3d"} {
			b.ReportMetric(benchCell(b, s, experiments.Key{Workload: wl, Strategy: prefetch.NP, Transfer: 4}).MeanProcUtilization(), wl+"-util-T4")
		}
	}
}

// BenchmarkFigure3 regenerates the CPU-miss component breakdown and reports
// pverify's invalidation share under NP.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "fig3")
		res := benchCell(b, s, experiments.Key{Workload: "pverify", Strategy: prefetch.NP, Transfer: 8})
		total := 0.0
		for m := sim.MissClass(0); m < sim.NumMissClasses; m++ {
			total += res.MissClassRate(m)
		}
		if inval := res.MissClassRate(sim.InvalNotPref) + res.MissClassRate(sim.InvalPref); total > 0 {
			b.ReportMetric(inval/total, "pverify-inval-share")
		}
	}
}

// BenchmarkTable3 regenerates the invalidation / false-sharing rates.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "table3")
		res := benchCell(b, s, experiments.Key{Workload: "mp3d", Strategy: prefetch.NP, Transfer: 8})
		if inval := res.InvalidationMissRate(); inval > 0 {
			b.ReportMetric(res.FalseSharingMissRate()/inval, "mp3d-FS-share")
		}
	}
}

// BenchmarkTable4 regenerates the restructured-program miss rates and
// reports topopt's false-sharing reduction factor.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "table4")
		origFS := benchCell(b, s, experiments.Key{Workload: "topopt", Strategy: prefetch.NP, Transfer: 8}).FalseSharingMissRate()
		restrFS := benchCell(b, s, experiments.Key{Workload: "topopt", Strategy: prefetch.NP, Transfer: 8, Restructured: true}).FalseSharingMissRate()
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
		s, _ := benchSection(b, "table5")
		rel := func(st prefetch.Strategy) float64 {
			np := benchCell(b, s, experiments.Key{Workload: "pverify", Strategy: prefetch.NP, Transfer: 8, Restructured: true})
			res := benchCell(b, s, experiments.Key{Workload: "pverify", Strategy: st, Transfer: 8, Restructured: true})
			return float64(res.Cycles) / float64(np.Cycles)
		}
		if pws := rel(prefetch.PWS); pws > 0 {
			b.ReportMetric(rel(prefetch.PREF)/pws, "pverify-PREF-over-PWS")
		}
	}
}

// BenchmarkAblations regenerates the ablations section — the
// configuration-sensitivity studies the paper describes in prose — and
// reports the headline deltas of three of them (cache size, line size,
// prefetch placement).
func BenchmarkAblations(b *testing.B) {
	mp3d := func(st prefetch.Strategy, kb, line int) experiments.Key {
		return experiments.Key{Workload: "mp3d", Strategy: st, Transfer: 8,
			Geometry: memory.Geometry{CacheSize: kb * 1024, LineSize: line, Assoc: 1}}
	}
	invalShare := func(r *sim.Result) float64 {
		return float64(r.Counters.InvalidationMisses()) / float64(r.Counters.TotalCPUMisses())
	}
	for i := 0; i < b.N; i++ {
		s, _ := benchSection(b, "ablations")
		small, large := benchCell(b, s, mp3d(prefetch.NP, 16, 32)), benchCell(b, s, mp3d(prefetch.NP, 128, 32))
		b.ReportMetric(invalShare(large)-invalShare(small), "inval-share-gain-128KB")
		short, long := benchCell(b, s, mp3d(prefetch.NP, 32, 16)), benchCell(b, s, mp3d(prefetch.NP, 32, 64))
		if fs := short.FalseSharingMissRate(); fs > 0 {
			b.ReportMetric(long.FalseSharingMissRate()/fs, "FS-growth-64B")
		}
		buffered := mp3d(prefetch.PREF, 32, 32)
		buffered.Buffer = true
		np, cache, buf := benchCell(b, s, mp3d(prefetch.NP, 32, 32)), benchCell(b, s, mp3d(prefetch.PREF, 32, 32)), benchCell(b, s, buffered)
		b.ReportMetric(float64(buf.Cycles)/float64(np.Cycles)-float64(cache.Cycles)/float64(np.Cycles), "buffer-vs-cache-gap")
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
