// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time through the program's public functions, checks every
// output, and prints its metrics by name with their units; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 204, "failed": 0, "metrics": {"p10_ms": {"value": 61.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload suite|cells|serve --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans around
// every call into the program and reports per-layer metrics instead. See
// README.md for the workloads and what each metric moves.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"busprefetch/internal/buildinfo"
)

// run is one benchmark run: its settings, and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string // repository root (goldens are read from it)
	out      string // directory for records, spans and the serve store
	scale    float64
	workers  int
	digest   string    // expected cells digest; "" selects the pinned one
	rec      *recorder // nil when untraced
	log      io.Writer // human-readable lines

	setups []time.Duration
	ops    []op
	// calls holds each kind's call latencies when an operation is a
	// sequence of calls of different kinds (the specs of a cells pass).
	calls     map[string][]time.Duration
	attempted int
	failed    int
	checkErrs []string
	valid     bool
	// metrics holds the end-to-end metrics on an untraced run and the
	// per-layer metrics on a traced one.
	metrics map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checkFailed records a failed output check.
func (r *run) checkFailed(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.checkErrs) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.checkErrs = append(r.checkErrs, msg)
}

// record adds one operation's outcome.
func (r *run) record(o op) {
	r.ops = append(r.ops, o)
	r.attempted++
	if !o.ok {
		r.failed++
	}
}

// defaultScale is each workload's trace-length multiplier. It is small
// enough that a run times many operations, so the reported quantiles come
// from many samples.
var defaultScale = map[string]float64{"suite": 0.1, "cells": 0.25, "serve": 0.1}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, r *run) error{
	"suite": runSuite,
	"cells": runCells,
	"serve": runServe,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload: suite, cells or serve")
		seed    = fs.Int64("seed", 1, "workload seed; inputs are generated from it")
		seconds = fs.Int("seconds", 30, "how long the timed phase runs")
		traced  = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
		root    = fs.String("root", ".", "repository root")
		out     = fs.String("out", ".bench_build/perfbench", "directory for result records, spans and the serve store")
		scale   = fs.Float64("scale", 0, "trace-length multiplier of every spec (0 = the workload's default; smoke tests shrink it)")
		workers = fs.Int("workers", 0, "suite pool size or serve workers (0 = GOMAXPROCS for suite, 1 for serve)")
		digest  = fs.String("expect-digest", "", "expected cells digest (default: the one pinned for seed 1 at the default scale)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*wl]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: suite, cells, serve)", *wl)
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 || *scale < 0 {
		return errors.New("--seconds must be at least 1, --trace 0 or 1, and --scale not negative")
	}
	if *scale == 0 {
		*scale = defaultScale[*wl]
	}
	// The host guard: more workers than GOMAXPROCS only overlap, and their
	// per-cell times would include waiting for each other.
	if *workers > runtime.GOMAXPROCS(0) {
		return fmt.Errorf("--workers %d exceeds GOMAXPROCS %d", *workers, runtime.GOMAXPROCS(0))
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		return fmt.Errorf("no program source under %s: %w", *root, err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	r := &run{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		root: *root, out: *out, scale: *scale, workers: *workers, digest: *digest, log: stdout,
		valid: true, metrics: map[string]metric{}}
	if *traced == 1 {
		r.rec = newRecorder()
		for _, m := range perLayer() {
			r.set(m[0], 0, m[1])
		}
	}
	if err := drive(context.Background(), r); err != nil {
		return fmt.Errorf("%s: %w", *wl, err)
	}
	if r.rec == nil {
		r.endToEnd()
	} else {
		r.traceOverhead(*out)
		if err := r.rec.write(filepath.Join(*out, r.recordName("spans"))); err != nil {
			return err
		}
	}
	if err := r.writeRecord(*out); err != nil {
		return err
	}
	return r.print(stdout)
}

// sloLimit is each operation class's latency limit.
func sloLimit(class string) time.Duration {
	switch class {
	case "cached":
		return 20 * time.Millisecond
	case "cold":
		return 200 * time.Millisecond
	case "cells": // one pass over the mix
		return 10 * time.Second
	default: // one full suite report
		return 90 * time.Second
	}
}

// endToEnd derives the end-to-end metrics from the operations.
func (r *run) endToEnd() {
	lat := latencies(r.ops, "")
	t, name := tail(lat)
	fmt.Fprintf(r.log, "%d operations: p10 %.3f ms, p50 %.3f ms, %s %.3f ms\n",
		len(lat), ms(p10(lat, r.calls)), ms(median(lat)), name, ms(t))
	fmt.Fprintf(r.log, "%d setups: min %.6f s, median %.6f s, max %.6f s\n", len(r.setups),
		percentile(r.setups, 0).Seconds(), median(r.setups).Seconds(), percentile(r.setups, 100).Seconds())
	r.set("setup_s", median(r.setups).Seconds(), "s")
	r.set("p10_ms", ms(p10(lat, r.calls)), "ms")
	r.set("slo_ratio", withinSLO(r.ops, sloLimit), "ratio")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func (r *run) recordName(kind string) string {
	return fmt.Sprintf("%s-%s-seed%d-scale%g-trace%d.json", kind, r.workload, r.seed, r.scale, boolInt(r.rec != nil))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// record is the JSON file each run leaves behind: the host and settings it
// ran under next to what it measured.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Scale      float64           `json:"scale"`
	Traced     bool              `json:"traced"`
	Seconds    float64           `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Revision   string            `json:"revision"`
	Workers    int               `json:"workers"`
	Valid      bool              `json:"valid"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Checks     []string          `json:"check_failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func (r *run) writeRecord(dir string) error {
	rec := record{Workload: r.workload, Seed: r.seed, Scale: r.scale, Traced: r.rec != nil,
		Seconds: r.seconds.Seconds(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: buildinfo.Revision(), Workers: r.workers,
		Valid: r.valid, Attempted: r.attempted,
		Failed: r.failed, Checks: r.checkErrs, Metrics: r.metrics}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.recordName("result")), append(data, '\n'), 0o644)
}

// traceOverhead reports the traced run's p10 operation latency against
// the untraced run's of the same workload, seed and scale, read from the
// record that run left; 0 when there is none.
func (r *run) traceOverhead(dir string) {
	traced := ms(p10(latencies(r.ops, ""), r.calls))
	untracedName := strings.Replace(r.recordName("result"), "trace1", "trace0", 1)
	ratio := 0.0
	var rec record
	if data, err := os.ReadFile(filepath.Join(dir, untracedName)); err == nil &&
		json.Unmarshal(data, &rec) == nil && rec.Metrics["p10_ms"].Value > 0 {
		untraced := rec.Metrics["p10_ms"].Value
		ratio = traced / untraced
		fmt.Fprintf(r.log, "tracing overhead: traced p10 %.3f ms vs untraced %.3f ms (%.3fx)\n", traced, untraced, ratio)
	} else {
		fmt.Fprintf(r.log, "tracing overhead: traced p10 %.3f ms; no untraced record to compare\n", traced)
	}
	r.set("bench.trace_overhead_ratio", ratio, "ratio")
}

// print writes one human-readable line per metric, then the JSON result.
func (r *run) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d scale %g: nproc %d, GOMAXPROCS %d, %s, revision %s, workers %d, valid %t\n",
		r.workload, r.seed, r.scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		buildinfo.Revision(), r.workers, r.valid)
	errRatio := 0.0
	if r.attempted > 0 {
		errRatio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-44s %14.6f ratio (%d of %d operations; %d failed checks)\n",
		"error_ratio", errRatio, r.failed, r.attempted, len(r.checkErrs))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %14.6f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	data, err := json.Marshal(result{len(r.checkErrs) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
