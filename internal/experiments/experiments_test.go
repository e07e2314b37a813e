package experiments

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
)

// testSuite returns a suite small enough for CI but large enough for the
// paper's qualitative shapes to hold.
func testSuite() *Suite {
	return NewSuite(Config{Scale: 0.15, Seed: 1, Transfers: []int{4, 8, 16, 32}})
}

func TestSuiteMemoizes(t *testing.T) {
	s := testSuite()
	k := Key{Workload: "water", Strategy: prefetch.NP, Transfer: 8}
	a, err := s.Result(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Result(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Result call did not return the memoized pointer")
	}
}

// TestEachCellSimulatesOnce renders every section of a small suite with a
// counting PerRun hook, which sees every cell's full Key: no Key may
// simulate twice, even when two goroutines prewarm the same keys at once, no
// two simulated Keys may share a checkpoint key (two spellings of one cell),
// and the report is exactly its distinct cells. Besides the default bus, it
// covers the two fabrics a Key can spell with or without the default link
// count: multibus (the ladder's dual rungs name 2 links) and a single bus
// given as one link.
func TestEachCellSimulatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	cases := []struct {
		cfg  Config
		want int
	}{
		// 244 section cells: the 155-cell grid, 12 observability cells, 24
		// online rows, 20 ladder rungs, 15 ablation and 18 protocol rows. 33
		// of them repeat another cell: the 12 observability cells and the 6
		// online oracle rows (grid cells), the 4 single-bus ladder rungs and
		// 11 ablation rows on the paper's machine (grid cells).
		{Config{Scale: 0.05, Seed: 1}, 211},
		// On a multibus grid, 30 of the 244 repeat another cell, among them
		// the 4 dual rungs.
		{Config{Scale: 0.02, Seed: 1, Interconnect: interconnect.Config{Kind: interconnect.MultiBus}}, 214},
		// A single bus spelled as one link is the default machine.
		{Config{Scale: 0.02, Seed: 1, Interconnect: interconnect.Config{Links: 1}}, 211},
	}
	for _, c := range cases {
		var mu sync.Mutex
		runs := map[Key]int{}
		cfg := c.cfg
		cfg.PerRun = func(k Key, _ *sim.Config) {
			mu.Lock()
			runs[k]++
			mu.Unlock()
		}
		s := NewSuite(cfg)
		all := func(string) bool { return true }
		keys := s.KeysFor(all)
		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Prewarm(ctx, keys, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if _, err := s.RenderSections(ctx, all); err != nil {
			t.Fatal(err)
		}
		spelled := map[string]Key{}
		for k, n := range runs {
			if n != 1 {
				t.Errorf("%v: %v simulated %d times", c.cfg.Interconnect, k, n)
			}
			if prev, ok := spelled[s.cellKey(k)]; ok {
				t.Errorf("%v: %v and %v are one cell spelled two ways", c.cfg.Interconnect, prev, k)
			}
			spelled[s.cellKey(k)] = k
		}
		if len(runs) != c.want {
			t.Errorf("%v: the report simulated %d cells, want %d", c.cfg.Interconnect, len(runs), c.want)
		}
	}
}

func TestPrewarmParallel(t *testing.T) {
	s := testSuite()
	keys := []Key{
		{Workload: "water", Strategy: prefetch.NP, Transfer: 4},
		{Workload: "water", Strategy: prefetch.PREF, Transfer: 4},
		{Workload: "water", Strategy: prefetch.NP, Transfer: 4}, // duplicate
	}
	var calls int
	if err := s.Prewarm(context.Background(), keys, func(done, total int) {
		calls++
		if total != 2 {
			t.Errorf("total = %d, want 2 after dedup", total)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("progress calls = %d", calls)
	}
}

func TestTable1(t *testing.T) {
	s := testSuite()
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DataSetKB <= 0 || r.SharedKB <= 0 || r.Processes < 2 || r.RefsPerProc <= 0 {
			t.Errorf("implausible row %+v", r)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "mp3d") || !strings.Contains(out, "Processes") {
		t.Errorf("render missing content:\n%s", out)
	}
}

// TestPaperShapes is the central integration test: one reduced-scale run of
// the whole grid, asserting the qualitative results the paper reports.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	s := testSuite()
	if err := s.Prewarm(context.Background(), s.GridKeys(), nil); err != nil {
		t.Fatal(err)
	}

	get := func(wl string, st prefetch.Strategy, tr int) *resultProxy {
		res, err := s.Result(Key{Workload: wl, Strategy: st, Transfer: tr})
		if err != nil {
			t.Fatal(err)
		}
		return &resultProxy{res.TotalMissRate(), res.CPUMissRate(), res.AdjustedCPUMissRate(),
			res.BusUtilization(), res.Cycles}
	}

	for _, wl := range WorkloadNames() {
		np4, pref4 := get(wl, prefetch.NP, 4), get(wl, prefetch.PREF, 4)

		// Figure 1: prefetching lowers the CPU miss rate...
		if pref4.cpuMR >= np4.cpuMR {
			t.Errorf("%s: PREF did not lower the CPU miss rate (%.4f -> %.4f)", wl, np4.cpuMR, pref4.cpuMR)
		}
		// ...and the adjusted CPU miss rate falls even further.
		if pref4.adjMR > pref4.cpuMR {
			t.Errorf("%s: adjusted MR above CPU MR", wl)
		}
		// Table 2: bus demand rises with prefetching at every latency.
		for _, tr := range []int{4, 8, 16, 32} {
			np, pf := get(wl, prefetch.NP, tr), get(wl, prefetch.PREF, tr)
			if pf.busUtil+0.005 < np.busUtil {
				t.Errorf("%s T=%d: PREF lowered bus utilization (%.3f -> %.3f)", wl, tr, np.busUtil, pf.busUtil)
			}
		}
		// Figure 2: whatever benefit prefetching has at the fast bus, it
		// shrinks (or becomes a degradation) at the saturated bus.
		gain4 := float64(get(wl, prefetch.NP, 4).cycles) / float64(get(wl, prefetch.PREF, 4).cycles)
		gain32 := float64(get(wl, prefetch.NP, 32).cycles) / float64(get(wl, prefetch.PREF, 32).cycles)
		if gain32 > gain4+0.02 {
			t.Errorf("%s: prefetching gained MORE at saturation (%.3f) than at the fast bus (%.3f)", wl, gain32, gain4)
		}
		// Bus utilization grows monotonically-ish with transfer latency.
		if get(wl, prefetch.NP, 32).busUtil+0.02 < get(wl, prefetch.NP, 4).busUtil {
			t.Errorf("%s: bus utilization fell from T=4 to T=32", wl)
		}
	}

	// PWS covers invalidation misses PREF cannot (the paper's §4.4).
	for _, wl := range []string{"pverify", "mp3d"} {
		pref, err := s.Result(Key{Workload: wl, Strategy: prefetch.PREF, Transfer: 4})
		if err != nil {
			t.Fatal(err)
		}
		pws, err := s.Result(Key{Workload: wl, Strategy: prefetch.PWS, Transfer: 4})
		if err != nil {
			t.Fatal(err)
		}
		if pws.AdjustedCPUMissRate() >= pref.AdjustedCPUMissRate() {
			t.Errorf("%s: PWS adjusted MR %.4f not below PREF %.4f",
				wl, pws.AdjustedCPUMissRate(), pref.AdjustedCPUMissRate())
		}
		if pws.Counters.PrefetchesIssued <= pref.Counters.PrefetchesIssued {
			t.Errorf("%s: PWS issued no extra prefetches", wl)
		}
	}
}

type resultProxy struct {
	totalMR, cpuMR, adjMR, busUtil float64
	cycles                         uint64
}

// TestRestructuringShapes verifies Tables 4-5 qualitatively: restructuring
// slashes false sharing and closes the PREF-vs-PWS gap.
func TestRestructuringShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("restructuring grid in -short mode")
	}
	s := NewSuite(Config{Scale: 0.15, Seed: 1, Transfers: []int{8}})
	for _, wl := range []string{"topopt", "pverify"} {
		orig, err := s.Result(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 8})
		if err != nil {
			t.Fatal(err)
		}
		restr, err := s.Result(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 8, Restructured: true})
		if err != nil {
			t.Fatal(err)
		}
		if restr.FalseSharingMissRate() > orig.FalseSharingMissRate()/2 {
			t.Errorf("%s: restructuring left FS at %.4f (was %.4f)",
				wl, restr.FalseSharingMissRate(), orig.FalseSharingMissRate())
		}
		if restr.CPUMissRate() >= orig.CPUMissRate() {
			t.Errorf("%s: restructuring did not lower the miss rate", wl)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	s := NewSuite(Config{Scale: 0.1, Seed: 1, Transfers: []int{8}})
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable3(t3); !strings.Contains(out, "Invalidation") {
		t.Errorf("Table 3 render:\n%s", out)
	}
	u, err := s.Utilization()
	if err == nil {
		_ = RenderUtilization(u)
	} else {
		// Utilization needs T=4 and T=32; this config only has T=8, so an
		// error is acceptable here... but it should not panic.
		t.Logf("utilization on reduced sweep: %v", err)
	}
}

// setupKeys keeps BenchmarkSuiteSetup's result live.
var setupKeys []Key

// BenchmarkSuiteSetup times suite construction plus KeysFor with every
// section selected — the work perfbench's suite/setup_s measures before
// every report.
func BenchmarkSuiteSetup(b *testing.B) {
	all := func(string) bool { return true }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Scale, cfg.Seed, cfg.Parallelism = 0.1, 1, runtime.GOMAXPROCS(0)
		setupKeys = NewSuite(cfg).KeysFor(all)
	}
}
