package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runTiny runs one workload at a tiny size and parses its result line.
func runTiny(t *testing.T, out string, args ...string) result {
	t.Helper()
	var stdout bytes.Buffer
	args = append([]string{"--seconds", "1", "--scale", "0.02", "--root", "..", "--out", out}, args...)
	if err := mainErr(args, &stdout); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	if res.Attempted < 1 {
		t.Errorf("%v: attempted %d", args, res.Attempted)
	}
	return res
}

// TestEveryMetricEmitted runs each workload untraced and traced and checks
// that every metric BENCHMARK.json names comes out with its unit, exactly.
func TestEveryMetricEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, tc := range []struct {
			trace string
			want  []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			res := runTiny(t, out, "--workload", w.Name, "--trace", tc.trace)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace %s: correct %t, failed %d", w.Name, tc.trace, res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.Name, tc.trace, len(res.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %t), want unit %s", w.Name, tc.trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestWrongDigestTripsCheck proves the cells output check can fail.
func TestWrongDigestTripsCheck(t *testing.T) {
	res := runTiny(t, t.TempDir(), "--workload", "cells", "--expect-digest", strings.Repeat("0", 64))
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong expected digest passed: correct %t, failed %d", res.Correct, res.Failed)
	}
}

// TestRefusesMoreWorkersThanGOMAXPROCS is the host guard.
func TestRefusesMoreWorkersThanGOMAXPROCS(t *testing.T) {
	var stdout bytes.Buffer
	err := mainErr([]string{"--workload", "suite", "--root", "..", "--out", t.TempDir(),
		"--workers", strconv.Itoa(runtime.GOMAXPROCS(0) + 1)}, &stdout)
	if err == nil || stdout.Len() != 0 {
		t.Fatalf("more workers than GOMAXPROCS ran: err %v, output %q", err, stdout.String())
	}
}

func TestTail(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 1000; i++ {
		xs = append(xs, time.Duration(i))
	}
	if got, name := tail(xs); name != "p99" || got != 990 {
		t.Errorf("tail of 1..1000 = %v (%s), want 990 (p99)", got, name)
	}
	if got, name := tail(xs[:50]); name != "max" || got != 50 {
		t.Errorf("tail of 1..50 = %v (%s), want 50 (max)", got, name)
	}
}

func TestP10(t *testing.T) {
	var ops, cheap, dear []time.Duration
	for i := 1; i <= 20; i++ {
		ops = append(ops, time.Duration(i))
		cheap = append(cheap, time.Duration(i))
		dear = append(dear, time.Duration(100*i))
	}
	if got := p10(ops, nil); got != 2 {
		t.Errorf("p10 of 1..20 = %v, want 2", got)
	}
	if got := p10(ops, map[string][]time.Duration{"cheap": cheap, "dear": dear}); got != 202 {
		t.Errorf("p10 over two kinds = %v, want 2 + 200", got)
	}
}

func TestSelfTime(t *testing.T) {
	all := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Parent: 1, Start: 20, End: 25},
	}
	self := selfTimes(all)
	for i, want := range []time.Duration{50, 25, 30, 5} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", all[i].Name, self[i], want)
		}
	}
}
