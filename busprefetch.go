// Package busprefetch reproduces Tullsen & Eggers, "Limitations of Cache
// Prefetching on a Bus-Based Multiprocessor" (ISCA 1993): a trace-driven
// simulation study of compiler-directed cache prefetching on a bus-based
// shared-memory multiprocessor.
//
// The package is the public facade over the full system:
//
//   - five synthetic parallel workloads standing in for the paper's traced
//     programs (Topopt, Mp3d, LocusRoute, Pverify, Water);
//   - an offline oracle prefetch inserter implementing the paper's five
//     disciplines (NP, PREF, EXCL, LPD, PWS);
//   - a cycle-based multiprocessor simulator with snooping caches under a
//     pluggable coherence protocol (Illinois, MSI, or Dragon write-update),
//     a contended split-transaction bus, lockup-free prefetching, and
//     lock/barrier-aware trace replay;
//   - the paper's full metric set: execution time, total / CPU / adjusted
//     miss rates, the Figure 3 miss-component taxonomy, false sharing, bus
//     and processor utilization.
//
// # Quick start
//
//	m, err := busprefetch.Run(busprefetch.RunSpec{
//		Workload: "mp3d",
//		Strategy: "PREF",
//		Transfer: 8,
//	})
//	if err != nil { ... }
//	fmt.Printf("CPU miss rate %.4f, bus utilization %.2f\n",
//		m.CPUMissRate, m.BusUtilization)
//
// Compare strategies the way the paper does (execution time relative to no
// prefetching on the same architecture) with Compare.
package busprefetch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"

	"busprefetch/internal/experiments"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/names"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/workload"
)

// Strategies lists the paper's five prefetch disciplines in presentation
// order: "NP", "PREF", "EXCL", "LPD", "PWS".
func Strategies() []string { return names.List(prefetch.Strategies(), prefetch.Strategy.String) }

// WorkloadInfo describes one of the five workloads (the paper's Table 1).
type WorkloadInfo struct {
	// Name is the canonical workload name ("topopt", "mp3d", "locus",
	// "pverify", "water").
	Name string
	// Description is a one-line summary.
	Description string
	// DefaultProcs is the process count used when RunSpec.Procs is zero.
	DefaultProcs int
}

// Workloads lists the five workloads in the paper's order.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workload.All() {
		out = append(out, WorkloadInfo{Name: w.Name, Description: w.Description, DefaultProcs: w.DefaultProcs})
	}
	return out
}

// RunSpec configures one simulation. It is also the body of the
// experiment server's POST /v1/runs, field for field under the JSON names
// below.
type RunSpec struct {
	// Workload is one of the names returned by Workloads (case
	// insensitive). Required.
	Workload string `json:"workload"`
	// Strategy is one of "NP", "PREF", "EXCL", "LPD", "PWS" (case
	// insensitive). Empty means NP.
	Strategy string `json:"strategy,omitempty"`
	// Prefetcher selects how prefetches are decided: "oracle" (the default,
	// the paper's offline annotator with perfect future knowledge) or one of
	// the online engines — "stride", "temporal", "pointer" — which train on
	// the demand stream during the run and issue prefetches at simulation
	// time under the selected Strategy. Case insensitive.
	Prefetcher string `json:"prefetcher,omitempty"`
	// Transfer is the contended data-transfer latency in cycles (the paper
	// sweeps 4-32). Zero selects 8.
	Transfer int `json:"transfer,omitempty"`
	// MemLatency is the total memory latency in cycles; zero selects the
	// paper's 100.
	MemLatency int `json:"mem_latency,omitempty"`
	// Procs overrides the workload's process count (0 = default).
	Procs int `json:"procs,omitempty"`
	// Scale multiplies trace length (0 = 1.0, roughly 10^5 references per
	// process), at most experiments.MaxScale (100).
	Scale float64 `json:"scale,omitempty"`
	// Seed seeds the deterministic workload generator (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Restructured uses the false-sharing-restructured data layout
	// (meaningful for topopt and pverify, the programs the paper
	// restructures).
	Restructured bool `json:"restructured,omitempty"`
	// Distance overrides the prefetch distance in estimated CPU cycles
	// (0 = the strategy default: 100, or 400 for LPD).
	Distance int `json:"distance,omitempty"`
	// CacheKB and LineBytes override the cache geometry (0 = the paper's
	// 32 KB direct-mapped cache with 32-byte lines), up to 32,768 lines.
	CacheKB   int `json:"cache_kb,omitempty"`
	LineBytes int `json:"line_bytes,omitempty"`
	// Protocol selects the coherence protocol: "illinois" (default, the
	// paper's), "msi" (the ablation without the private-clean state), or
	// "dragon" (write-update: updates broadcast instead of invalidating).
	Protocol string `json:"protocol,omitempty"`
	// VictimCacheLines adds a fully-associative victim cache of that many
	// lines, at most 1,024, behind each data cache (0 = none) — the paper's
	// §4.3 suggestion for prefetch-induced conflict misses.
	VictimCacheLines int `json:"victim_cache_lines,omitempty"`
	// BufferPrefetch routes prefetches into a non-snooping FIFO buffer
	// instead of the cache (the §3.1 alternative the paper rejects).
	// Write-shared lines are automatically excluded from prefetching, as
	// the buffer's correctness requires.
	BufferPrefetch bool `json:"buffer_prefetch,omitempty"`
	// Interconnect selects the fabric: "bus" (default, the paper's single
	// split-transaction bus), "multibus" (address-interleaved data buses),
	// or "directory" (point-to-point with a home-node lookup latency). Case
	// insensitive.
	Interconnect string `json:"interconnect,omitempty"`
	// Buses sets the link count, at most 64 (0 = the fabric default: one
	// bus, 2 multibus buses, or one directory link per processor).
	Buses int `json:"buses,omitempty"`
	// Discipline selects the bus arbitration order: "priority" (default,
	// the paper's demand > prefetch > writeback) or "fcfs". Case
	// insensitive.
	Discipline string `json:"discipline,omitempty"`
}

// Limits on the spec fields that size a run's per-processor allocations.
const (
	maxCacheLines  = 32768 // 8x the lines of the 128 KB cache-size ablation
	maxVictimLines = 1024
)

// resolve turns the spec into the Key of its simulation, every name parsed
// and every default filled in, and the workload parameters its trace is
// generated from, which carry the inputs a Key does not: procs, scale and
// seed. Out-of-range values are rejected, never aliased.
func (s RunSpec) resolve() (experiments.Key, workload.Params, error) {
	w, err := workload.ByName(s.Workload)
	if err != nil {
		return experiments.Key{}, workload.Params{}, err
	}
	k, err := experiments.ParseMachine(s.MemLatency, s.Protocol, s.Prefetcher, s.Interconnect, s.Buses, s.Discipline)
	if err == nil && s.Strategy != "" {
		k.Strategy, err = prefetch.ParseStrategy(s.Strategy)
	}
	kb, line := cmp.Or(s.CacheKB, 32), cmp.Or(s.LineBytes, 32)
	if line > 0 && kb > maxCacheLines/1024*line {
		err = errors.Join(err, fmt.Errorf("cache_kb %d of %d-byte lines exceeds %d lines", kb, line, maxCacheLines))
	}
	if err = errors.Join(err, experiments.CheckScale(s.Scale),
		experiments.CheckRange("distance", s.Distance, math.MinInt32, math.MaxInt32),
		experiments.CheckRange("victim_cache_lines", s.VictimCacheLines, 0, maxVictimLines)); err != nil {
		return experiments.Key{}, workload.Params{}, err
	}
	k.Workload, k.Transfer, k.Restructured, k.Buffer = w.Name, cmp.Or(s.Transfer, 8), s.Restructured, s.BufferPrefetch
	k.Geometry = memory.Geometry{CacheSize: kb * 1024, LineSize: line, Assoc: 1}
	k.VictimLines, k.Distance = int32(s.VictimCacheLines), int32(s.Distance)
	procs := cmp.Or(s.Procs, w.DefaultProcs)
	// One directory link per processor is the directory's default, which a
	// Key spells without a count. A Key carries no processor count, so the
	// fold happens here: both spellings then share one result-store key.
	if k.Fabric.Kind == interconnect.Directory && k.Fabric.Links == procs {
		k.Fabric.Links = 0
	}
	return k, workload.Params{Procs: procs, Scale: cmp.Or(s.Scale, 1), Seed: cmp.Or(s.Seed, 1),
		Restructured: s.Restructured, Geometry: k.Geometry}, nil
}

// SpecString returns the canonical one-line form of the spec: the trace
// inputs (procs, scale, seed), then the spelling of the suite Key the spec
// resolves to, with every default filled in and every name parsed to its
// canonical case. Two specs with equal SpecStrings produce byte-identical
// results (runs are deterministic in the spec), which is what lets the
// experiment server key its content-addressed result store on it —
// alongside the build revision — and serve a cached result to any client
// that resubmits the spec. Invalid specs return the error a Run of the same
// spec would.
func (s RunSpec) SpecString() (string, error) {
	k, p, err := s.resolve()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("procs=%d|scale=%g|seed=%d|%s", p.Procs, p.Scale, p.Seed, k.SpecString()), nil
}

// MissComponents is the paper's Figure 3 taxonomy, as rates per demand
// reference.
type MissComponents struct {
	NonSharingNotPrefetched   float64
	NonSharingPrefetched      float64
	InvalidationNotPrefetched float64
	InvalidationPrefetched    float64
	PrefetchInProgress        float64
}

// Metrics is the outcome of one simulation, exposing every metric the paper
// reports.
type Metrics struct {
	// Workload, Strategy and Transfer echo the spec in canonical form: the
	// workload's and the strategy's names as Workloads and Strategies spell
	// them, and the transfer cost with its default filled in.
	Workload string
	Strategy string
	Transfer int

	// Cycles is the parallel execution time in CPU cycles.
	Cycles uint64
	// DemandRefs is the number of demand references (miss-rate denominator).
	DemandRefs uint64

	// CPUMissRate counts all demand misses (including prefetch-in-progress)
	// per demand reference. AdjustedCPUMissRate excludes prefetch-in-
	// progress; TotalMissRate counts every memory fetch, demand or prefetch.
	CPUMissRate         float64
	AdjustedCPUMissRate float64
	TotalMissRate       float64

	// InvalidationMissRate and FalseSharingMissRate follow the paper's
	// Table 3 definitions.
	InvalidationMissRate float64
	FalseSharingMissRate float64

	// Components is the Figure 3 breakdown.
	Components MissComponents

	// BusUtilization is the contended resource's busy fraction;
	// ProcessorUtilization is the mean CPU busy fraction.
	BusUtilization       float64
	ProcessorUtilization float64

	// PrefetchesIssued counts prefetch instructions executed;
	// PrefetchOverhead is prefetches per demand reference (the instruction
	// overhead the annotation added). Both are zero under an online
	// prefetcher, whose stream carries no prefetch instructions.
	PrefetchesIssued uint64
	PrefetchOverhead float64

	// OnlinePrefetches counts bus fetches initiated by an online engine
	// (zero under the oracle).
	OnlinePrefetches uint64

	// BusOps is the total number of bus transactions (fills, invalidations
	// and writebacks).
	BusOps uint64
}

func metricsFrom(k experiments.Key, res *sim.Result) *Metrics {
	m := &Metrics{
		Workload:             k.Workload,
		Strategy:             k.Strategy.String(),
		Transfer:             k.Transfer,
		Cycles:               res.Cycles,
		DemandRefs:           res.Counters.DemandRefs(),
		CPUMissRate:          res.CPUMissRate(),
		AdjustedCPUMissRate:  res.AdjustedCPUMissRate(),
		TotalMissRate:        res.TotalMissRate(),
		InvalidationMissRate: res.InvalidationMissRate(),
		FalseSharingMissRate: res.FalseSharingMissRate(),
		BusUtilization:       res.BusUtilization(),
		ProcessorUtilization: res.MeanProcUtilization(),
		PrefetchesIssued:     res.Counters.PrefetchesIssued,
		PrefetchOverhead:     overheadFrom(res),
		OnlinePrefetches:     res.Counters.OnlineIssued,
		BusOps:               res.Bus.TotalOps(),
	}
	m.Components = MissComponents{
		NonSharingNotPrefetched:   res.MissClassRate(sim.NonSharingNotPref),
		NonSharingPrefetched:      res.MissClassRate(sim.NonSharingPref),
		InvalidationNotPrefetched: res.MissClassRate(sim.InvalNotPref),
		InvalidationPrefetched:    res.MissClassRate(sim.InvalPref),
		PrefetchInProgress:        res.MissClassRate(sim.PrefetchInProgress),
	}
	return m
}

// overheadFrom derives the paper's prefetch-overhead metric (prefetch
// instructions per demand reference) from the run's retirement counters;
// every event in the stream retires, so this equals the static annotation
// count without holding the trace in memory.
func overheadFrom(res *sim.Result) float64 {
	demand := res.Counters.DemandRefs()
	if demand == 0 {
		return 0
	}
	return float64(res.Counters.PrefetchesIssued) / float64(demand)
}

// Run generates the workload trace, annotates it with the requested
// prefetch strategy, simulates it on the configured machine and returns the
// paper's metrics. Runs are deterministic in the spec.
//
// The pipeline is fully streaming: workload events flow from the generator
// through the prefetch annotator into the simulator in fixed-size chunks,
// so memory stays flat in the trace length.
func Run(spec RunSpec) (*Metrics, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run under a context: cancelling ctx aborts the simulation at
// its next cancellation poll and returns ctx's error. The experiment server
// uses it to drain in-flight runs on shutdown.
func RunContext(ctx context.Context, spec RunSpec) (*Metrics, error) {
	k, p, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName(k.Workload)
	if err != nil {
		return nil, err
	}
	src, _, err := w.Source(p)
	if err != nil {
		return nil, err
	}
	res, err := experiments.Simulate(ctx, k, src, nil, nil)
	if err != nil {
		return nil, err
	}
	return metricsFrom(k, res), nil
}

// Comparison holds one strategy's metrics plus its execution time relative
// to the NP baseline on the same architecture (the paper's headline metric;
// values below 1 are speedups).
type Comparison struct {
	Metrics
	RelativeTime float64
}

// Compare runs the given strategies (all five when none are named) on one
// workload and architecture, returning them in order with execution times
// relative to NP. The NP baseline is always included first, once. Every
// name is parsed before the first run, so an unknown one fails before
// anything simulates.
func Compare(spec RunSpec, strategies ...string) ([]Comparison, error) {
	if len(strategies) == 0 {
		strategies = Strategies()
	}
	ordered := []prefetch.Strategy{prefetch.NP}
	for _, name := range strategies {
		st, err := prefetch.ParseStrategy(name)
		if err != nil {
			return nil, err
		}
		if st != prefetch.NP {
			ordered = append(ordered, st)
		}
	}
	var out []Comparison
	var npCycles uint64
	for _, st := range ordered {
		spec := spec
		spec.Strategy = st.String()
		m, err := Run(spec)
		if err != nil {
			return nil, err
		}
		c := Comparison{Metrics: *m, RelativeTime: 1}
		if st == prefetch.NP {
			npCycles = m.Cycles
		} else if npCycles > 0 {
			c.RelativeTime = float64(m.Cycles) / float64(npCycles)
		}
		out = append(out, c)
	}
	return out, nil
}

// Speedup converts a relative execution time into the speedup the paper
// quotes (1.39 for a relative time of 0.72, and so on).
func Speedup(relativeTime float64) float64 {
	if relativeTime <= 0 {
		return 0
	}
	return 1 / relativeTime
}
