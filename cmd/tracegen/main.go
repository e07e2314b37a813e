// Command tracegen generates a workload's multiprocessor address trace,
// prints its statistics and sharing profile, and can save it in the binary
// trace format (replayable with prefetchsim -trace).
//
// Usage:
//
//	tracegen -workload mp3d                       # statistics only
//	tracegen -workload water -o water.bptr        # save the trace
//	tracegen -workload pverify -restructured -strategy PWS # show PWS annotation stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"busprefetch/internal/buildinfo"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command. Every failure comes back as an error, so the
// deferred removal of a temporary trace file runs before the process exits.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		wlName       = fs.String("workload", "mp3d", "workload: topopt, mp3d, locus, pverify, water")
		procs        = fs.Int("procs", 0, "processor count (0 = workload default)")
		scale        = fs.Float64("scale", 1.0, "trace length multiplier")
		seed         = fs.Int64("seed", 1, "generator seed")
		restructured = fs.Bool("restructured", false, "use the restructured layout")
		stratName    = fs.String("strategy", "NP", "annotate with a prefetch strategy before reporting/saving")
		outPath      = fs.String("o", "", "write the trace in binary format to this file")
		version      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("tracegen"))
		return nil
	}

	w, err := workload.ByName(*wlName)
	if err != nil {
		return err
	}
	base, info, err := w.Source(workload.Params{Procs: *procs, Scale: *scale, Seed: *seed, Restructured: *restructured})
	if err != nil {
		return err
	}

	geom := memory.DefaultGeometry()
	strat, err := prefetch.ParseStrategy(*stratName)
	if err != nil {
		return err
	}
	src, err := prefetch.AnnotateSource(base, prefetch.Options{Strategy: strat, Geometry: geom}, nil)
	if err != nil {
		return err
	}

	st := trace.SummarizeSource(src, geom)
	overhead := 0.0
	if st.DemandRefs > 0 {
		overhead = float64(st.Prefetches) / float64(st.DemandRefs)
	}
	fmt.Fprintf(stdout, "workload %s (%s)\n", info.Name, info.Description)
	fmt.Fprintf(stdout, "  processes:      %d\n", st.Procs)
	fmt.Fprintf(stdout, "  events:         %d\n", st.Events)
	fmt.Fprintf(stdout, "  demand refs:    %d (%d reads, %d writes, %d sync locks)\n", st.DemandRefs, st.Reads, st.Writes, st.Locks)
	fmt.Fprintf(stdout, "  prefetches:     %d (overhead %.1f%%)\n", st.Prefetches, 100*overhead)
	fmt.Fprintf(stdout, "  barriers:       %d\n", st.Barriers)
	fmt.Fprintf(stdout, "  data touched:   %d KB (declared data set %d KB)\n", st.TouchedData/1024, info.DataSet/1024)
	fmt.Fprintf(stdout, "  shared data:    %d KB touched by >1 process\n", st.SharedData/1024)
	fmt.Fprintf(stdout, "  write-shared:   %d KB\n", st.WriteShared/1024)

	// Sharing ignores prefetch events, so the unannotated source gives the
	// same profile without re-running the annotator.
	prof, err := trace.AnalyzeSharingSource(base, geom)
	if err != nil {
		return err
	}
	priv, rs, ws := prof.Counts()
	fmt.Fprintf(stdout, "  lines: %d private, %d read-shared, %d write-shared\n", priv, rs, ws)

	if *outPath == "" {
		return nil
	}
	// Write via temp + rename so a crash or Ctrl-C mid-encode leaves
	// either the previous complete trace or none — never a torn file a
	// later replay would have to diagnose.
	f, err := os.CreateTemp(filepath.Dir(*outPath), filepath.Base(*outPath)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	t, err := trace.Materialize(src)
	if err != nil {
		return err
	}
	if err := trace.Encode(f, t); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), *outPath); err != nil {
		return err
	}
	fi, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s (%d bytes, %.2f bytes/event)\n", *outPath, fi.Size(), float64(fi.Size())/float64(st.Events))
	return nil
}
