// Command benchdiff compares two files of standard `go test -bench` output
// and reports, per benchmark, the median ns/op of each side and the delta.
// It is the repository's dependency-free stand-in for benchstat: CI runs the
// microbenchmarks of a change and of its merge-base in alternating pairs on
// one runner and gates merges on benchdiff between the two (see
// PERFORMANCE.md for the workflow).
//
// Usage:
//
//	benchdiff old.txt new.txt                       # report all deltas
//	benchdiff -gate FullCell=10 old.txt new.txt     # also fail >10% regressions
//
// Each -gate NAME=PCT (repeatable) fails the run with exit status 1 when the
// named benchmark's median ns/op regressed by more than PCT percent, when
// its median allocs/op rose by more than 1% (checked when both files carry
// allocs/op, that is when both runs had -test.benchmem), or when the gate
// does not resolve to one benchmark in each file — a silently vanished gate
// benchmark must not pass. NAME resolves, in each file, to the benchmark
// named exactly BenchmarkNAME (after the -N GOMAXPROCS suffix is stripped),
// else to the only benchmark whose name contains NAME; a NAME contained in
// several names and equal to none is ambiguous and fails the gate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"busprefetch/internal/buildinfo"
)

// gate is one -gate NAME=PCT regression bound.
type gate struct {
	name string
	pct  float64
}

// gateList implements flag.Value for repeated -gate flags.
type gateList []gate

func (g *gateList) String() string {
	parts := make([]string, len(*g))
	for i, x := range *g {
		parts[i] = fmt.Sprintf("%s=%g", x.name, x.pct)
	}
	return strings.Join(parts, ",")
}

func (g *gateList) Set(s string) error {
	name, pctStr, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("gate %q: want NAME=PCT", s)
	}
	pct, err := strconv.ParseFloat(pctStr, 64)
	if err != nil || pct < 0 {
		return fmt.Errorf("gate %q: bad percentage %q", s, pctStr)
	}
	*g = append(*g, gate{name: name, pct: pct})
	return nil
}

func main() {
	var gates gateList
	flag.Var(&gates, "gate", "fail when benchmark NAME=PCT regresses more than PCT percent (repeatable)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("benchdiff"))
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gate NAME=PCT]... OLD NEW")
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, old, cur)
	if errs := checkGates(gates, old, cur); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "benchdiff:", e)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// samples are one benchmark's per-run results: ns/op always, allocs/op
// when the run had -test.benchmem.
type samples struct {
	ns, allocs []float64
}

func parseFile(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return samples, nil
}

// parseBench collects ns/op and allocs/op samples per benchmark from `go
// test -bench` output. The trailing -N GOMAXPROCS suffix is stripped so
// results compare across machines with different core counts.
func parseBench(r io.Reader) (map[string]*samples, error) {
	out := make(map[string]*samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Fields: Name iterations value "ns/op" [value unit]...
		if fields[3] != "ns/op" {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := out[name]
		if s == nil {
			s = &samples{}
			out[name] = s
		}
		s.ns = append(s.ns, v)
		for i := 4; i+1 < len(fields); i += 2 {
			if fields[i+1] != "allocs/op" {
				continue
			}
			if a, err := strconv.ParseFloat(fields[i], 64); err == nil {
				s.allocs = append(s.allocs, a)
			}
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// deltaPct returns the percentage change from old to new (positive = slower).
func deltaPct(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}

func report(w io.Writer, old, cur map[string]*samples) {
	names := make([]string, 0, len(old)+len(cur))
	seen := make(map[string]bool)
	for n := range old {
		names = append(names, n)
		seen[n] = true
	}
	for n := range cur {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range names {
		o, hasOld := old[n]
		c, hasCur := cur[n]
		switch {
		case !hasOld:
			fmt.Fprintf(w, "%-40s %14s %14.0f %9s\n", n, "-", median(c.ns), "new")
		case !hasCur:
			fmt.Fprintf(w, "%-40s %14.0f %14s %9s\n", n, median(o.ns), "-", "gone")
		default:
			fmt.Fprintf(w, "%-40s %14.0f %14.0f %+8.1f%%\n", n, median(o.ns), median(c.ns), deltaPct(median(o.ns), median(c.ns)))
		}
	}
}

// allocsLimitPct is how far a gated benchmark's median allocs/op may rise.
// Allocation counts barely move from run to run, so a rise past it is the
// code's, not the runner's.
const allocsLimitPct = 1

// resolve returns the one benchmark of m that gate NAME names: the one
// named exactly "Benchmark"+name, else the only one whose name contains
// name. No match and several matches are both errors.
func resolve(name string, m map[string]*samples) (string, error) {
	if _, ok := m["Benchmark"+name]; ok {
		return "Benchmark" + name, nil
	}
	var found []string
	for n := range m {
		if strings.Contains(n, name) {
			found = append(found, n)
		}
	}
	switch len(found) {
	case 0:
		return "", fmt.Errorf("no benchmark matches")
	case 1:
		return found[0], nil
	}
	sort.Strings(found)
	return "", fmt.Errorf("ambiguous, matches %s", strings.Join(found, ", "))
}

// checkGates verifies every gate resolves to one benchmark on each side and
// stays within its ns/op bound and the allocs/op bound.
func checkGates(gates []gate, old, cur map[string]*samples) []error {
	var errs []error
	for _, g := range gates {
		oldName, err := resolve(g.name, old)
		if err != nil {
			errs = append(errs, fmt.Errorf("gate %s: old: %w", g.name, err))
			continue
		}
		curName, err := resolve(g.name, cur)
		if err != nil {
			errs = append(errs, fmt.Errorf("gate %s: new: %w", g.name, err))
			continue
		}
		o, c := old[oldName], cur[curName]
		if d := deltaPct(median(o.ns), median(c.ns)); d > g.pct {
			errs = append(errs, fmt.Errorf("gate %s: %s regressed %.1f%% (limit %.1f%%)", g.name, curName, d, g.pct))
		}
		switch {
		case len(o.allocs) == 0 && len(c.allocs) == 0:
		case len(o.allocs) == 0 || len(c.allocs) == 0:
			errs = append(errs, fmt.Errorf("gate %s: allocs/op reported on one side only (old %d samples, new %d)", g.name, len(o.allocs), len(c.allocs)))
		case median(c.allocs) > median(o.allocs)*(1+allocsLimitPct/100.0):
			errs = append(errs, fmt.Errorf("gate %s: %s allocs/op rose from %.0f to %.0f (limit %d%%)",
				g.name, curName, median(o.allocs), median(c.allocs), allocsLimitPct))
		}
	}
	return errs
}
