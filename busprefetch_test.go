package busprefetch

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"busprefetch/internal/bus"
	"busprefetch/internal/coherence"
	"busprefetch/internal/experiments"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
)

func TestWorkloadsAndStrategies(t *testing.T) {
	ws := Workloads()
	if len(ws) != 5 {
		t.Fatalf("workloads = %d", len(ws))
	}
	for _, w := range ws {
		if w.Name == "" || w.Description == "" || w.DefaultProcs < 2 {
			t.Errorf("bad workload info %+v", w)
		}
	}
	ss := Strategies()
	want := []string{"NP", "PREF", "EXCL", "LPD", "PWS"}
	for i, s := range want {
		if ss[i] != s {
			t.Fatalf("strategies = %v", ss)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Run(RunSpec{Workload: "nope", Scale: 0.05}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(RunSpec{Workload: "water", Strategy: "bogus", Scale: 0.05}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunProducesMetrics(t *testing.T) {
	m, err := Run(RunSpec{Workload: "water", Strategy: "PREF", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || m.DemandRefs == 0 {
		t.Fatal("empty metrics")
	}
	if m.CPUMissRate <= 0 || m.CPUMissRate > 1 {
		t.Errorf("CPU miss rate %f", m.CPUMissRate)
	}
	if m.AdjustedCPUMissRate > m.CPUMissRate {
		t.Error("adjusted MR above CPU MR")
	}
	if m.TotalMissRate < m.AdjustedCPUMissRate {
		t.Error("total MR below adjusted CPU MR")
	}
	if m.BusUtilization <= 0 || m.BusUtilization > 1 {
		t.Errorf("bus utilization %f", m.BusUtilization)
	}
	if m.ProcessorUtilization <= 0 || m.ProcessorUtilization > 1 {
		t.Errorf("processor utilization %f", m.ProcessorUtilization)
	}
	if m.PrefetchesIssued == 0 || m.PrefetchOverhead <= 0 {
		t.Error("PREF issued no prefetches")
	}
	sum := m.Components.NonSharingNotPrefetched + m.Components.NonSharingPrefetched +
		m.Components.InvalidationNotPrefetched + m.Components.InvalidationPrefetched +
		m.Components.PrefetchInProgress
	if diff := sum - m.CPUMissRate; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("components sum %f != CPU MR %f", sum, m.CPUMissRate)
	}
	// Names are case insensitive, and the metrics echo their canonical form.
	again, err := Run(RunSpec{Workload: "WATER", Strategy: "pref", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Workload != "water" || again.Strategy != "PREF" || *again != *m {
		t.Errorf("WATER/pref ran as %s/%s, want the water/PREF metrics", again.Workload, again.Strategy)
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := RunSpec{Workload: "mp3d", Strategy: "PWS", Scale: 0.05, Transfer: 16}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Error("identical specs produced different metrics")
	}
}

func TestCompare(t *testing.T) {
	results, err := Compare(RunSpec{Workload: "water", Scale: 0.1}, "PREF")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Strategy != "NP" || results[0].RelativeTime != 1 {
		t.Errorf("baseline = %+v", results[0])
	}
	if results[1].Strategy != "PREF" || results[1].RelativeTime <= 0 {
		t.Errorf("PREF = %+v", results[1])
	}
}

func TestCompareDefaultsToAllStrategies(t *testing.T) {
	results, err := Compare(RunSpec{Workload: "water", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d, want all five strategies", len(results))
	}
}

// TestCompareParsesNamesFirst: Compare recognizes NP in any case, so it
// runs NP once, first, and it parses every name before the first run, so
// an unknown name fails with its own error even where the first run would
// fail on the spec.
func TestCompareParsesNamesFirst(t *testing.T) {
	results, err := Compare(RunSpec{Workload: "water", Scale: 0.05}, "Np", "pref")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range results {
		got = append(got, r.Strategy)
	}
	if !slices.Equal(got, []string{"NP", "PREF"}) {
		t.Errorf("Compare(Np, pref) ran %v, want [NP PREF]", got)
	}
	_, err = Compare(RunSpec{Workload: "water", Scale: -1}, "PREF", "nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("Compare with an unknown name and a bad scale: err = %v, want the unknown name named", err)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(0.72) < 1.38 || Speedup(0.72) > 1.40 {
		t.Errorf("Speedup(0.72) = %f", Speedup(0.72))
	}
	if Speedup(0) != 0 {
		t.Error("Speedup(0) must not divide by zero")
	}
}

func TestCustomGeometryAndDistance(t *testing.T) {
	m, err := Run(RunSpec{Workload: "water", Strategy: "PREF", Scale: 0.05,
		CacheKB: 16, LineBytes: 64, Distance: 250})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestHeadlineResult asserts the paper's abstract at reduced scale: on a
// bus-based multiprocessor with high memory latency, prefetching helps on a
// fast bus and the benefit shrinks or reverses near saturation.
func TestHeadlineResult(t *testing.T) {
	if testing.Short() {
		t.Skip("headline integration in -short mode")
	}
	fast, err := Compare(RunSpec{Workload: "mp3d", Transfer: 4, Scale: 0.2}, "PREF")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Compare(RunSpec{Workload: "mp3d", Transfer: 32, Scale: 0.2}, "PREF")
	if err != nil {
		t.Fatal(err)
	}
	if fast[1].RelativeTime >= 1 {
		t.Errorf("no speedup on the fast bus: %f", fast[1].RelativeTime)
	}
	if slow[1].RelativeTime < fast[1].RelativeTime {
		t.Errorf("saturated bus gained more (%f) than fast bus (%f)",
			slow[1].RelativeTime, fast[1].RelativeTime)
	}
	if slow[1].RelativeTime < 0.9 {
		t.Errorf("saturated bus still shows a large speedup: %f", slow[1].RelativeTime)
	}
}

func TestProtocolOption(t *testing.T) {
	illinois, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	msi, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Protocol: "msi"})
	if err != nil {
		t.Fatal(err)
	}
	if msi.BusOps <= illinois.BusOps {
		t.Errorf("MSI bus ops %d not above Illinois %d (first-write upgrades missing)",
			msi.BusOps, illinois.BusOps)
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Protocol: "mesi2"}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestVictimCacheOption(t *testing.T) {
	plain, err := Run(RunSpec{Workload: "topopt", Strategy: "PREF", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := Run(RunSpec{Workload: "topopt", Strategy: "PREF", Scale: 0.05, VictimCacheLines: 8})
	if err != nil {
		t.Fatal(err)
	}
	if victim.CPUMissRate >= plain.CPUMissRate {
		t.Errorf("victim cache did not cut topopt's conflict misses: %.4f vs %.4f",
			victim.CPUMissRate, plain.CPUMissRate)
	}
}

func TestBufferPrefetchOption(t *testing.T) {
	buffer, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05, BufferPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	cachePf, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// The non-snooping buffer cannot prefetch shared data, so it must issue
	// far fewer prefetches on this shared-heavy workload.
	if buffer.PrefetchesIssued >= cachePf.PrefetchesIssued {
		t.Errorf("buffer mode issued %d prefetches, cache mode %d — write-shared exclusion missing",
			buffer.PrefetchesIssued, cachePf.PrefetchesIssued)
	}
}

func TestInterconnectOption(t *testing.T) {
	single, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05,
		Interconnect: "multibus", Buses: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Four address-interleaved buses must relieve the paper's bottleneck on
	// its most bus-bound workload.
	if quad.Cycles >= single.Cycles {
		t.Errorf("quad bus did not speed up mp3d: %d vs %d cycles", quad.Cycles, single.Cycles)
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Interconnect: "nosuch"}); err == nil {
		t.Error("unknown interconnect accepted")
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Discipline: "nosuch"}); err == nil {
		t.Error("unknown discipline accepted")
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Buses: 2}); err == nil {
		t.Error("multi-link single bus accepted")
	}
}

// TestDirectoryLinkCountFold: a directory with one link per processor is
// the directory's default, so spelling that count out gives the default's
// SpecString, and with it one result-store key, and the same metrics. Any
// other link count keeps its own key.
func TestDirectoryLinkCountFold(t *testing.T) {
	mp3dProcs := 0
	for _, w := range Workloads() {
		if w.Name == "mp3d" {
			mp3dProcs = w.DefaultProcs
		}
	}
	for _, c := range []struct{ procs, links int }{{0, mp3dProcs}, {16, 16}} {
		def := RunSpec{Workload: "mp3d", Strategy: "PREF", Transfer: 32, Scale: 0.05,
			Procs: c.procs, Interconnect: "directory"}
		spelled, other := def, def
		spelled.Buses, other.Buses = c.links, c.links-4
		defKey, err1 := def.SpecString()
		spelledKey, err2 := spelled.SpecString()
		otherKey, err3 := other.SpecString()
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
		if spelledKey != defKey {
			t.Errorf("procs %d: %d links spells %q, the default %q", c.procs, c.links, spelledKey, defKey)
		}
		if otherKey == defKey {
			t.Errorf("procs %d: %d links shares the default's key %q", c.procs, other.Buses, defKey)
		}
		dm, err := Run(def)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := Run(spelled)
		if err != nil {
			t.Fatal(err)
		}
		if *dm != *sm {
			t.Errorf("procs %d: %d links gives %+v, the default %+v", c.procs, c.links, *sm, *dm)
		}
	}
}

// TestRunMatchesSuiteCell runs one spec per seam through Run and the
// matching Key through the experiment suite: both must simulate the same
// machine, so a second pipeline cannot drift from the suite's unnoticed.
func TestRunMatchesSuiteCell(t *testing.T) {
	const scale = 0.05
	suite := experiments.NewSuite(experiments.Config{Scale: scale, Seed: 1})
	cases := []struct {
		spec RunSpec
		key  experiments.Key
	}{
		{RunSpec{Workload: "mp3d", Strategy: "PREF"},
			experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8}},
		{RunSpec{Workload: "pverify", Strategy: "PWS"},
			experiments.Key{Workload: "pverify", Strategy: prefetch.PWS, Transfer: 8}},
		{RunSpec{Workload: "water", Strategy: "LPD", Transfer: 16},
			experiments.Key{Workload: "water", Strategy: prefetch.LPD, Transfer: 16}},
		{RunSpec{Workload: "topopt", Strategy: "PREF", Restructured: true},
			experiments.Key{Workload: "topopt", Strategy: prefetch.PREF, Transfer: 8, Restructured: true}},
		{RunSpec{Workload: "mp3d", Strategy: "PREF", Protocol: "dragon"},
			experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8, Protocol: coherence.Dragon}},
		{RunSpec{Workload: "mp3d", Strategy: "PREF", Transfer: 32, Interconnect: "multibus", Buses: 4},
			experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 32,
				Fabric: interconnect.Config{Kind: interconnect.MultiBus, Links: 4}}},
		{RunSpec{Workload: "mp3d", Strategy: "PREF", Discipline: "fcfs"},
			experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8,
				Fabric: interconnect.Config{Discipline: bus.FCFS}}},
		{RunSpec{Workload: "mp3d", Strategy: "PREF", Prefetcher: "stride"},
			experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8, Prefetcher: prefetch.Stride}},
		{RunSpec{Workload: "topopt", Strategy: "PREF", VictimCacheLines: 8},
			experiments.Key{Workload: "topopt", Strategy: prefetch.PREF, Transfer: 8, VictimLines: 8}},
		{RunSpec{Workload: "mp3d", Strategy: "PREF", BufferPrefetch: true},
			experiments.Key{Workload: "mp3d", Strategy: prefetch.PREF, Transfer: 8, Buffer: true}},
		{RunSpec{Workload: "water", Strategy: "PREF", MemLatency: 200, Distance: 250},
			experiments.Key{Workload: "water", Strategy: prefetch.PREF, Transfer: 8, MemLatency: 200, Distance: 250}},
	}
	for _, c := range cases {
		c.spec.Scale = scale
		m, err := Run(c.spec)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		res, err := suite.Result(c.key)
		if err != nil {
			t.Fatalf("%v: %v", c.key, err)
		}
		if m.Cycles != res.Cycles || m.BusOps != res.Bus.TotalOps() || m.CPUMissRate != res.CPUMissRate() {
			t.Errorf("%v: Run gives %d cycles, %d bus ops, CPU MR %v; the suite %d, %d, %v",
				c.key, m.Cycles, m.BusOps, m.CPUMissRate, res.Cycles, res.Bus.TotalOps(), res.CPUMissRate())
		}
	}
}
