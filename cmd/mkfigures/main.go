// Command mkfigures regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's layout. With -out it
// also writes the results into a Markdown report (the data behind
// EXPERIMENTS.md).
//
// The suite cells are independent simulations; they are sharded across a
// bounded worker pool (-jobs) and reduced in canonical order, so stdout is
// byte-identical for every worker count. -bench-out records the run's wall
// clock (per cell, total, trace-cache hit rate) as JSON for inspecting one
// run; comparing commits is perfbench's job (perfbench/README.md).
// -metrics-out records the observability slice (prefetch lifetimes,
// latency histograms, bus occupancy) as JSON.
//
// Usage:
//
//	mkfigures                 # full suite at scale 1 (several minutes)
//	mkfigures -scale 0.25     # quick pass
//	mkfigures -only fig2      # a single experiment
//	mkfigures -protocol dragon # the whole grid under write-update coherence
//	mkfigures -prefetcher stride # the whole grid with online stride prefetching
//	mkfigures -interconnect multibus -buses 4 # the whole grid on a quad bus
//	mkfigures -jobs 8         # shard cells across 8 workers
//	mkfigures -out results.md # also write a Markdown report
//	mkfigures -bench-out bench.json  # per-cell wall clock of this run
//	mkfigures -metrics-out METRICS_suite.json  # record prefetch-lifetime metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"busprefetch/internal/buildinfo"
	"busprefetch/internal/experiments"
	"busprefetch/internal/obs"
	"busprefetch/internal/runner"
)

func main() {
	// First Ctrl-C / SIGTERM cancels the sweep cleanly (running cells abort
	// at the simulator's next poll, completed cells stay checkpointed under
	// -resume); a second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "mkfigures:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind flag parsing; every failure comes back as
// an error and turns into one diagnostic line and a non-zero exit.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mkfigures", flag.ContinueOnError)
	var (
		scale      = fs.Float64("scale", 1.0, "trace length multiplier")
		seed       = fs.Int64("seed", 1, "workload generator seed")
		only       = fs.String("only", "", "run one experiment: "+strings.Join(experiments.SectionNames(), ", "))
		jobs       = fs.Int("jobs", 0, "worker pool size for sharding cells (0 = GOMAXPROCS)")
		protoStr   = fs.String("protocol", "illinois", "coherence protocol for the suite grid: illinois, msi, or dragon")
		pfName     = fs.String("prefetcher", "oracle", "prefetcher for the suite grid: oracle, stride, temporal, or pointer")
		icName     = fs.String("interconnect", "bus", "interconnect fabric for the suite grid: bus, multibus, or directory")
		buses      = fs.Int("buses", 0, "link count for multibus/directory fabrics (0 = fabric default)")
		discName   = fs.String("discipline", "priority", "bus arbitration discipline for the suite grid: priority or fcfs")
		out        = fs.String("out", "", "also write the report to this file")
		benchOut   = fs.String("bench-out", "", "write a JSON benchmark report (wall-clock per cell, trace-cache hit rate) to this file")
		metricsOut = fs.String("metrics-out", "", "write the observability slice (prefetch lifetimes, latency histograms) as JSON to this file")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		execTrace  = fs.String("exectrace", "", "write a runtime/trace execution trace to this file")
		timeout    = fs.Duration("timeout", 0, "per-cell wall-clock budget (0 = none); a timed-out cell is reported as failed")
		resume     = fs.String("resume", "", "checkpoint directory: completed cells persist here and an interrupted sweep resumes from it")
		version    = fs.Bool("version", false, "print version and exit")
		quiet      = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("mkfigures"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	if *only != "" && !experiments.ValidSection(*only) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *only, strings.Join(experiments.SectionNames(), ", "))
	}
	machine, err := experiments.ParseMachine(0, *protoStr, *pfName, *icName, *buses, *discName)
	if err == nil {
		err = experiments.CheckScale(*scale)
	}
	if err != nil {
		return err
	}

	prof := obs.Profiling{PprofAddr: *pprofAddr, CPUProfile: *cpuProfile, ExecTrace: *execTrace}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	if addr := prof.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "mkfigures: pprof listening on http://%s/debug/pprof/\n", addr)
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Parallelism: *jobs, Protocol: machine.Protocol,
		Prefetcher: machine.Prefetcher, Interconnect: machine.Fabric, Timeout: *timeout}
	if *resume != "" {
		store, err := runner.OpenCheckpointStore(*resume)
		if err != nil {
			return err
		}
		cfg.Checkpoints = store
	}
	suite := experiments.NewSuite(cfg)

	want := func(name string) bool { return *only == "" || strings.EqualFold(*only, name) }

	start := time.Now()

	// Pre-run the shared simulation grid in parallel.
	keys := suite.KeysFor(want)
	if len(keys) > 0 && !*quiet {
		fmt.Fprintf(os.Stderr, "mkfigures: simulating %d configurations (scale %.2f, %d workers)...\n",
			len(keys), *scale, suite.Workers())
	}
	progress := func(done, total int) {
		if !*quiet && done%10 == 0 {
			fmt.Fprintf(os.Stderr, "  %d/%d (%.0fs elapsed)\n", done, total, time.Since(start).Seconds())
		}
	}
	var cellErrs *experiments.CellErrors
	if err := suite.Prewarm(ctx, keys, progress); err != nil {
		// Individual failed cells are annotated in the tables; the rest of
		// the report still renders. A cancelled sweep, or anything else, is
		// fatal — with a resume hint when the work is recoverable.
		if !errors.As(err, &cellErrs) {
			return interruptHint(err, *resume)
		}
		fmt.Fprintln(os.Stderr, "mkfigures: warning:", err)
	}

	reportText, err := suite.RenderSections(ctx, want)
	if err != nil {
		return interruptHint(err, *resume)
	}
	fmt.Fprintln(stdout, reportText)

	if *out != "" {
		md := fmt.Sprintf("# Reproduction results (scale %.2f, seed %d)\n\n```\n%s\n```\n", *scale, *seed, reportText)
		if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "mkfigures: wrote %s\n", *out)
		}
	}

	if *benchOut != "" {
		bench := suite.Bench(time.Since(start))
		if err := bench.WriteFile(*benchOut); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "mkfigures: wrote %s (%d cells, %.0fms total, %d/%d workers/cores, trace-cache hit rate %.2f)\n",
				*benchOut, len(bench.Cells), bench.TotalMillis, bench.Workers, runtime.GOMAXPROCS(0), bench.TraceCacheHitRate)
		}
	}

	if *metricsOut != "" {
		metrics, err := suite.Metrics(ctx, cellErrs)
		if err != nil {
			return interruptHint(err, *resume)
		}
		if err := metrics.WriteFile(*metricsOut); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "mkfigures: wrote %s (%d cells)\n", *metricsOut, len(metrics.Cells))
		}
	}

	return nil
}

// interruptHint decorates a cancellation error with the way back: resumed
// sweeps recompute only the cells the interrupted one never finished.
func interruptHint(err error, resumeDir string) error {
	if err == nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	if resumeDir != "" {
		return fmt.Errorf("%w (completed cells are checkpointed; rerun with -resume %s to continue)", err, resumeDir)
	}
	return fmt.Errorf("%w (rerun with -resume DIR to make sweeps interruptible without losing work)", err)
}
