// Command prefetchsim runs one simulation — a (workload, prefetch strategy,
// memory architecture) triple — and prints the metrics the paper reports:
// miss rates with the Figure 3 component breakdown, bus utilization,
// processor utilization, and execution time.
//
// Usage:
//
//	prefetchsim -workload mp3d -strategy PREF -transfer 8
//	prefetchsim -workload pverify -all -transfer 4      # all five strategies
//	prefetchsim -workload mp3d -strategy PREF -prefetcher stride  # online engine
//	prefetchsim -workload mp3d -all -interconnect multibus -buses 4  # quad-bus fabric
//	prefetchsim -workload topopt -all -restructured
//	prefetchsim -trace water.bptr -strategy PREF   # replay a saved trace
//	prefetchsim -strategy PREF -trace-out run.json # export a Perfetto trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"

	"busprefetch/internal/buildinfo"
	"busprefetch/internal/bus"
	"busprefetch/internal/experiments"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/names"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

func main() {
	// First Ctrl-C / SIGTERM cancels the runs cleanly mid-simulation; a
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "prefetchsim:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command: every failure — an unknown workload, a bad flag
// combination, a corrupt trace file, a simulation fault — comes back as an
// error and turns into one diagnostic line and a non-zero exit, never a panic.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// The valid values of each enum flag, for its help text and errors.
	valid := func(ns []string) string { return strings.Join(ns, ", ") }
	var (
		workloadNames     = valid(names.List(workload.All(), func(w *workload.Workload) string { return w.Name }))
		strategyNames     = valid(names.List(prefetch.Strategies(), prefetch.Strategy.String))
		prefetcherNames   = valid(names.List(prefetch.Kinds(), prefetch.Kind.String))
		interconnectNames = valid(names.List(interconnect.Kinds(), interconnect.Kind.String))
		disciplineNames   = valid(names.List(bus.Disciplines(), bus.Discipline.String))
	)
	fs := flag.NewFlagSet("prefetchsim", flag.ContinueOnError)
	var (
		wlName       = fs.String("workload", "mp3d", "workload: "+workloadNames)
		stratName    = fs.String("strategy", "NP", "prefetch strategy: "+strategyNames)
		pfName       = fs.String("prefetcher", "oracle", "prefetcher: "+prefetcherNames+" (online engines issue at simulation time)")
		icName       = fs.String("interconnect", "bus", "interconnect fabric: "+interconnectNames)
		buses        = fs.Int("buses", 0, "link count for multibus/directory fabrics (0 = fabric default)")
		discName     = fs.String("discipline", "priority", "bus arbitration discipline: "+disciplineNames)
		all          = fs.Bool("all", false, "run all five strategies and compare")
		transfer     = fs.Int("transfer", 8, "contended data-transfer latency in cycles (paper: 4-32)")
		latency      = fs.Int("latency", 100, "total memory latency in cycles")
		protoStr     = fs.String("protocol", "illinois", "coherence protocol: illinois, msi, or dragon")
		procs        = fs.Int("procs", 0, "processor count (0 = workload default)")
		scale        = fs.Float64("scale", 1.0, "trace length multiplier")
		seed         = fs.Int64("seed", 1, "workload generator seed")
		restructured = fs.Bool("restructured", false, "use the false-sharing-restructured layout")
		jobs         = fs.Int("jobs", 0, "worker pool size for -all strategy runs (0 = GOMAXPROCS)")
		distance     = fs.Int("distance", 0, "prefetch distance in cycles (0 = strategy default)")
		regions      = fs.Bool("regions", false, "attribute CPU misses to workload data structures")
		tracePath    = fs.String("trace", "", "replay a saved binary trace instead of generating a workload")
		traceOut     = fs.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the run to this file")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		execTrace    = fs.String("exectrace", "", "write a runtime/trace execution trace to this file")
		timeout      = fs.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
		version      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("prefetchsim"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	if *traceOut != "" && *all {
		return fmt.Errorf("-trace-out records a single run; it cannot be combined with -all")
	}

	prof := obs.Profiling{PprofAddr: *pprofAddr, CPUProfile: *cpuProfile, ExecTrace: *execTrace}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	if addr := prof.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "prefetchsim: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	if *tracePath != "" {
		// Generation flags are meaningless when replaying a saved trace;
		// silently ignoring them would hide a typo'd invocation.
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload", "procs", "scale", "seed", "restructured":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("%s cannot be combined with -trace (the trace is already generated)",
				strings.Join(conflict, ", "))
		}
	}

	// Resolve the machine and strategy before the (possibly expensive)
	// trace generation so a typo'd flag fails in milliseconds.
	machine, err := experiments.ParseMachine(*latency, *protoStr, *pfName, *icName, *buses, *discName)
	if err == nil {
		err = experiments.CheckRange("distance", *distance, math.MinInt32, math.MaxInt32)
	}
	if err != nil {
		return err
	}
	var strategies []prefetch.Strategy
	if *all {
		strategies = prefetch.Strategies()
	} else {
		s, err := prefetch.ParseStrategy(*stratName)
		if err != nil {
			return fmt.Errorf("unknown strategy %q (valid: %s)", *stratName, strategyNames)
		}
		strategies = append(strategies, s)
	}

	// The pipeline is fully streaming: the workload source (or the decoded
	// BPTR source) feeds the annotator feeds the simulator in fixed-size
	// chunks.
	var (
		src  trace.Source
		info workload.Info
	)
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		src, err = trace.DecodeSource(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		info = workload.Info{Name: src.Name(), Description: "replayed from " + *tracePath}
	} else {
		w, err := workload.ByName(*wlName)
		if err != nil {
			return fmt.Errorf("unknown workload %q (valid: %s)", *wlName, workloadNames)
		}
		src, info, err = w.Source(workload.Params{Procs: *procs, Scale: *scale, Seed: *seed, Restructured: *restructured})
		if err != nil {
			return err
		}
	}

	// The per-strategy runs are independent simulations of the same base
	// trace: shard them across the worker pool and print in canonical
	// strategy order afterwards, so the output is identical at any -jobs.
	// Nothing prints until every run succeeds, so a failure is one
	// diagnostic and no partial report.
	results := make([]*sim.Result, len(strategies))
	tasks := make([]runner.Task, len(strategies))
	var rec *obs.Recorder
	for i, s := range strategies {
		k := machine
		k.Workload, k.Strategy, k.Transfer, k.Restructured, k.Distance = info.Name, s, *transfer, *restructured, int32(*distance)
		tasks[i] = runner.Task{Label: s.String(), Run: func(ctx context.Context) error {
			if *timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, *timeout)
				defer cancel()
			}
			res, err := experiments.Simulate(ctx, k, src, func(cfg *sim.Config) {
				if *regions {
					cfg.Regions = info.Regions
				}
				if *traceOut != "" {
					// -all is excluded above, so this is the only task and
					// the recorder assignment is race-free.
					rec = obs.New(src.Procs(), obs.Options{Spans: true})
					cfg.Obs = rec
				}
			}, nil)
			if err != nil {
				return fmt.Errorf("strategy %s: %w", s, err)
			}
			results[i] = res
			return nil
		}}
	}
	errs, _ := runner.NewPool(*jobs).Do(ctx, tasks, nil)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	st := trace.SummarizeSource(src, memory.DefaultGeometry())
	fmt.Fprintf(stdout, "workload %s: %d procs, %d demand refs (%d reads, %d writes), %d locks, %d barriers\n",
		info.Name, st.Procs, st.DemandRefs, st.Reads, st.Writes, st.Locks, st.Barriers)
	// The header names the machine as simulated, defaults filled in.
	cfg := results[0].Config
	fabric := ""
	if spec := cfg.Interconnect.String(); spec != "bus" {
		// Non-default fabrics are worth a header mention; the default single
		// bus keeps the paper-baseline output byte-identical.
		fabric = "; " + spec + " fabric"
	}
	fmt.Fprintf(stdout, "data touched %d KB, shared %d KB, write-shared %d KB; transfer latency %d/%d cycles; %s protocol%s\n\n",
		st.TouchedData/1024, st.SharedData/1024, st.WriteShared/1024, cfg.TransferCycles, cfg.MemLatency, cfg.Protocol, fabric)

	var npCycles uint64
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tcycles\trel.time\tCPU MR\tadj MR\ttotal MR\tinval MR\tFS MR\tbus util\tproc util\tprefetches\tpf-hits")
	for i, s := range strategies {
		res := results[i]
		if s == prefetch.NP {
			npCycles = res.Cycles
		}
		rel := "-"
		if npCycles > 0 {
			rel = fmt.Sprintf("%.3f", float64(res.Cycles)/float64(npCycles))
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%.2f\t%d\t%d\n",
			s, res.Cycles, rel,
			res.CPUMissRate(), res.AdjustedCPUMissRate(), res.TotalMissRate(),
			res.InvalidationMissRate(), res.FalseSharingMissRate(),
			res.BusUtilization(), res.MeanProcUtilization(),
			res.Counters.PrefetchesIssued, res.Counters.PrefetchCacheHits)
		if err := tw.Flush(); err != nil {
			return err
		}
		printComponents(stdout, res)
		printOnline(stdout, res)
		if *regions {
			printRegions(stdout, res)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		err = rec.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "prefetchsim: wrote %s\n", *traceOut)
	}
	return nil
}

// printRegions shows which data structures the CPU misses came from,
// largest contributor first.
func printRegions(w io.Writer, res *sim.Result) {
	type row struct {
		name string
		rm   sim.RegionMisses
	}
	var rows []row
	for name, rm := range res.RegionMisses {
		rows = append(rows, row{name, rm})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rm.Total() != rows[j].rm.Total() {
			return rows[i].rm.Total() > rows[j].rm.Total()
		}
		return rows[i].name < rows[j].name
	})
	total := res.Counters.TotalCPUMisses()
	fmt.Fprintf(w, "    misses by data structure:\n")
	for _, r := range rows {
		if r.rm.Total() == 0 {
			continue
		}
		inval := r.rm.CPUMisses[sim.InvalNotPref] + r.rm.CPUMisses[sim.InvalPref]
		fmt.Fprintf(w, "      %-18s %6.1f%%  (inval %.0f%%, false sharing %.0f%%)\n",
			r.name, 100*float64(r.rm.Total())/float64(total),
			100*float64(inval)/float64(r.rm.Total()),
			100*float64(r.rm.FalseSharing)/float64(r.rm.Total()))
	}
}

func printComponents(w io.Writer, res *sim.Result) {
	c := &res.Counters
	total := c.TotalCPUMisses()
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "    miss components:")
	for m := sim.MissClass(0); m < sim.NumMissClasses; m++ {
		fmt.Fprintf(w, "  %s %.1f%%", m, 100*float64(c.CPUMisses[m])/float64(total))
	}
	fmt.Fprintf(w, "  | false sharing %.1f%% of inval\n", pct(c.FalseSharing, c.InvalidationMisses()))
	busy, mem, lock, barrier, buffer := res.WaitBreakdown()
	fmt.Fprintf(w, "    time: busy %.2f mem %.2f lock %.2f barrier %.2f buffer %.2f\n",
		busy, mem, lock, barrier, buffer)
}

// printOnline shows the online engine's issue accounting and internal
// bookkeeping; silent on oracle runs, so their output is unchanged.
func printOnline(w io.Writer, res *sim.Result) {
	if res.Online == nil {
		return
	}
	c := &res.Counters
	fmt.Fprintf(w, "    online: emitted %d (issued %d, filtered %d, dropped %d); trained %d useful %d untimely %d divergence %d\n",
		c.OnlineEmitted, c.OnlineIssued, c.OnlineFiltered, c.OnlineDropped,
		res.Online.Trained, res.Online.Useful, res.Online.Untimely, res.Online.Divergence)
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
