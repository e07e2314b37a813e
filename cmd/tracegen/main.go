// Command tracegen generates a workload's multiprocessor address trace,
// prints its statistics and sharing profile, and can save it in the binary
// trace format (replayable with prefetchsim -trace).
//
// Usage:
//
//	tracegen -workload mp3d                       # statistics only
//	tracegen -workload water -o water.bptr        # save the trace
//	tracegen -workload pverify -restructured -pws # show PWS annotation stats
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"busprefetch/internal/buildinfo"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

func main() {
	var (
		wlName       = flag.String("workload", "mp3d", "workload: topopt, mp3d, locus, pverify, water")
		procs        = flag.Int("procs", 0, "processor count (0 = workload default)")
		scale        = flag.Float64("scale", 1.0, "trace length multiplier")
		seed         = flag.Int64("seed", 1, "generator seed")
		restructured = flag.Bool("restructured", false, "use the restructured layout")
		stratName    = flag.String("strategy", "NP", "annotate with a prefetch strategy before reporting/saving")
		outPath      = flag.String("o", "", "write the trace in binary format to this file")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("tracegen"))
		return
	}

	w, err := workload.ByName(*wlName)
	if err != nil {
		fatal(err)
	}
	base, info, err := w.Source(workload.Params{Procs: *procs, Scale: *scale, Seed: *seed, Restructured: *restructured})
	if err != nil {
		fatal(err)
	}

	geom := memory.DefaultGeometry()
	strat, err := prefetch.ParseStrategy(*stratName)
	if err != nil {
		fatal(err)
	}
	src, err := prefetch.AnnotateSource(base, prefetch.Options{Strategy: strat, Geometry: geom}, nil)
	if err != nil {
		fatal(err)
	}

	st, err := trace.SummarizeSource(src, geom)
	if err != nil {
		fatal(err)
	}
	overhead := 0.0
	if st.DemandRefs > 0 {
		overhead = float64(st.Prefetches) / float64(st.DemandRefs)
	}
	fmt.Printf("workload %s (%s)\n", info.Name, info.Description)
	fmt.Printf("  processes:      %d\n", st.Procs)
	fmt.Printf("  events:         %d\n", st.Events)
	fmt.Printf("  demand refs:    %d (%d reads, %d writes, %d sync locks)\n", st.DemandRefs, st.Reads, st.Writes, st.Locks)
	fmt.Printf("  prefetches:     %d (overhead %.1f%%)\n", st.Prefetches, 100*overhead)
	fmt.Printf("  barriers:       %d\n", st.Barriers)
	fmt.Printf("  data touched:   %d KB (declared data set %d KB)\n", st.TouchedData/1024, info.DataSet/1024)
	fmt.Printf("  shared data:    %d KB touched by >1 process\n", st.SharedData/1024)
	fmt.Printf("  write-shared:   %d KB\n", st.WriteShared/1024)

	// Sharing ignores prefetch events, so the unannotated source gives the
	// same profile without re-running the annotator.
	prof, err := trace.AnalyzeSharingSource(base, geom)
	if err != nil {
		fatal(err)
	}
	priv, rs, ws := prof.Counts()
	fmt.Printf("  lines: %d private, %d read-shared, %d write-shared\n", priv, rs, ws)

	if *outPath != "" {
		// Write via temp + rename so a crash or Ctrl-C mid-encode leaves
		// either the previous complete trace or none — never a torn file a
		// later replay would have to diagnose.
		f, err := os.CreateTemp(filepath.Dir(*outPath), filepath.Base(*outPath)+".tmp*")
		if err != nil {
			fatal(err)
		}
		defer os.Remove(f.Name())
		t, err := trace.Materialize(src)
		if err != nil {
			fatal(err)
		}
		if err := trace.Encode(f, t); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if err := os.Rename(f.Name(), *outPath); err != nil {
			fatal(err)
		}
		fi, err := os.Stat(*outPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  wrote %s (%d bytes, %.2f bytes/event)\n", *outPath, fi.Size(), float64(fi.Size())/float64(st.Events))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
