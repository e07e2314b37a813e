// Command chaossoak drives the fault-injection soak harness (internal/chaos)
// from the command line: N randomized fault plans — stalls, spins,
// violations, panics, mid-sweep kills, torn checkpoint writes — against real
// sweeps, under a wall-clock budget. CI's scheduled chaos job runs it with a
// clock-derived seed; rerun a failure with the seed it printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"busprefetch/internal/chaos"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaossoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "master seed for the fault plans (0 derives one from the clock)")
	plans := fs.Int("plans", 50, "number of randomized fault plans")
	budget := fs.Duration("budget", 60*time.Second, "wall-clock budget; plans not yet started when it expires are skipped (0 = unlimited)")
	scale := fs.Float64("scale", 0.1, "sweep scale each plan runs at")
	jobs := fs.Int("jobs", 0, "worker pool size per sweep (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-cell timeout")
	dir := fs.String("dir", "", "checkpoint root (empty = a temp dir, removed afterwards)")
	quiet := fs.Bool("q", false, "suppress per-plan progress lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	opts := chaos.Options{
		Seed:        *seed,
		Plans:       *plans,
		Budget:      *budget,
		Scale:       *scale,
		Jobs:        *jobs,
		CellTimeout: *timeout,
		Dir:         *dir,
	}
	if !*quiet {
		opts.Log = func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
	}
	fmt.Fprintf(stdout, "chaossoak: seed=%d plans=%d budget=%v scale=%g timeout=%v\n",
		*seed, *plans, *budget, *scale, *timeout)
	rep, err := chaos.Soak(ctx, opts)
	if rep != nil {
		fmt.Fprintln(stdout, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "chaossoak: %v (replay with -seed %d)\n", err, *seed)
		return 1
	}
	return 0
}
