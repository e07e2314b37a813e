package main

import (
	"strings"
	"testing"
)

const oldOut = `goos: linux
goarch: amd64
pkg: busprefetch/internal/sim
BenchmarkFullCell 	      16	  70000000 ns/op	   2100000 events/s
BenchmarkFullCell 	      16	  72000000 ns/op	   2050000 events/s
BenchmarkFullCell 	      16	  71000000 ns/op	   2080000 events/s
BenchmarkProbeHit-8 	   26979	     45000 ns/op
BenchmarkProbeHit-8 	   27453	     44000 ns/op
PASS
`

const newOut = `pkg: busprefetch/internal/sim
BenchmarkFullCell 	      82	  14000000 ns/op	  10000000 events/s
BenchmarkFullCell 	      85	  15000000 ns/op	   9800000 events/s
BenchmarkFullCell 	      85	  14500000 ns/op	   9900000 events/s
BenchmarkProbeHit-8 	   44252	     50000 ns/op
BenchmarkProbeHit-8 	   43665	     51000 ns/op
PASS
`

func parseString(t *testing.T, s string) map[string]*samples {
	t.Helper()
	m, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parseString(t, oldOut)
	if got := len(m["BenchmarkFullCell"].ns); got != 3 {
		t.Errorf("FullCell samples = %d, want 3", got)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	if got := len(m["BenchmarkProbeHit"].ns); got != 2 {
		t.Errorf("ProbeHit samples = %d, want 2", got)
	}
	if m["BenchmarkFullCell"].ns[0] != 70000000 {
		t.Errorf("first FullCell sample = %v, want 70000000", m["BenchmarkFullCell"].ns[0])
	}
	if len(m["BenchmarkFullCell"].allocs) != 0 {
		t.Errorf("allocs/op parsed from a run without -benchmem: %v", m["BenchmarkFullCell"].allocs)
	}
	mem := parseString(t, memOut)
	if got := mem["BenchmarkFullCell"].allocs; len(got) != 2 || got[0] != 2834 {
		t.Errorf("FullCell allocs/op = %v, want [2834 2834]", got)
	}
}

// memOut and memOutMore are -benchmem runs: a custom metric sits between
// ns/op and B/op, and FullCell's allocs/op rises 2% in memOutMore.
const memOut = `BenchmarkFullCell-2 	      20	  15000000 ns/op	   160534 events/op	   9755126 events/s	  684724 B/op	    2834 allocs/op
BenchmarkFullCell-2 	      20	  15100000 ns/op	   160534 events/op	   9700000 events/s	  684724 B/op	    2834 allocs/op
`

const memOutMore = `BenchmarkFullCell-2 	      20	  15000000 ns/op	   160534 events/op	   9755126 events/s	  694724 B/op	    2891 allocs/op
BenchmarkFullCell-2 	      20	  15100000 ns/op	   160534 events/op	   9700000 events/s	  694724 B/op	    2891 allocs/op
`

func TestGateFailsOnAllocsRise(t *testing.T) {
	base, more := parseString(t, memOut), parseString(t, memOutMore)
	gates := []gate{{name: "FullCell", pct: 10}}
	if errs := checkGates(gates, base, more); len(errs) != 1 || !strings.Contains(errs[0].Error(), "allocs/op") {
		t.Errorf("a 2%% allocs/op rise passed: %v", errs)
	}
	if errs := checkGates(gates, more, base); len(errs) != 0 {
		t.Errorf("an allocs/op fall failed: %v", errs)
	}
	// One side without -benchmem cannot be compared, so the gate fails.
	if errs := checkGates(gates, parseString(t, oldOut), base); len(errs) != 1 {
		t.Errorf("allocs/op on one side only passed: %v", errs)
	}
}

// sharedOut holds benchmarks whose names contain one another.
const sharedOut = `BenchmarkFullCell 	      16	  70000000 ns/op
BenchmarkFullCellChecked 	      16	  90000000 ns/op
BenchmarkStreamingCell 	      16	  30000000 ns/op
BenchmarkInterconnectOverhead/bus-2 	      16	  70000000 ns/op
BenchmarkInterconnectOverhead/busy-2 	      16	  70000000 ns/op
`

// sharedOutSlower is sharedOut with every benchmark but FullCell 50% slower.
const sharedOutSlower = `BenchmarkFullCell 	      16	  70000000 ns/op
BenchmarkFullCellChecked 	      16	 135000000 ns/op
BenchmarkStreamingCell 	      16	  45000000 ns/op
BenchmarkInterconnectOverhead/bus-2 	      16	 105000000 ns/op
BenchmarkInterconnectOverhead/busy-2 	      16	 105000000 ns/op
`

func TestGateResolvesExactNameFirst(t *testing.T) {
	old, cur := parseString(t, sharedOut), parseString(t, sharedOutSlower)
	// FullCell is also a substring of FullCellChecked, which regressed;
	// the exact name wins on both sides, every time.
	for i := 0; i < 20; i++ {
		if errs := checkGates([]gate{{name: "FullCell", pct: 10}}, old, cur); len(errs) != 0 {
			t.Fatalf("FullCell gate compared another benchmark: %v", errs)
		}
	}
}

func TestGateUsesTheOnlySubstringMatch(t *testing.T) {
	old, cur := parseString(t, sharedOut), parseString(t, sharedOutSlower)
	errs := checkGates([]gate{{name: "Streaming", pct: 10}}, old, cur)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "BenchmarkStreamingCell regressed 50.0%") {
		t.Errorf("Streaming gate: %v, want StreamingCell's 50%% regression", errs)
	}
}

func TestGateFailsWhenAmbiguous(t *testing.T) {
	old := parseString(t, sharedOut)
	for _, name := range []string{"Cell", "Overhead/bus"} {
		errs := checkGates([]gate{{name: name, pct: 1000}}, old, old)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "ambiguous") {
			t.Errorf("gate %s matching several benchmarks: %v, want ambiguous", name, errs)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestGatePassesOnImprovement(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	errs := checkGates([]gate{{name: "FullCell", pct: 10}}, old, cur)
	if len(errs) != 0 {
		t.Errorf("improvement flagged as regression: %v", errs)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	// ProbeHit went 44.5us -> 50.5us: a ~13.5% regression.
	errs := checkGates([]gate{{name: "ProbeHit", pct: 10}}, old, cur)
	if len(errs) != 1 {
		t.Fatalf("regression not flagged: %v", errs)
	}
	// A looser bound admits it.
	if errs := checkGates([]gate{{name: "ProbeHit", pct: 20}}, old, cur); len(errs) != 0 {
		t.Errorf("within-bound change flagged: %v", errs)
	}
}

func TestGateFailsWhenBenchmarkMissing(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	if errs := checkGates([]gate{{name: "NoSuchBench", pct: 10}}, old, cur); len(errs) != 1 {
		t.Errorf("missing gate benchmark not flagged: %v", errs)
	}
}

func TestReportListsAllBenchmarks(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	var sb strings.Builder
	report(&sb, old, cur)
	out := sb.String()
	for _, want := range []string{"BenchmarkFullCell", "BenchmarkProbeHit", "-79.6%", "+13.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
