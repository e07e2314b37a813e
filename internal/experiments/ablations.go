package experiments

import (
	"context"
	"fmt"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
)

// The ablations reproduce the configuration variations the paper describes
// but does not tabulate (§3.3: "Several other configurations were
// simulated... with larger caches, non-sharing misses were reduced, making
// invalidation miss effects much more dominant; larger block sizes increased
// false sharing") and the design alternatives it points at (§4.3's victim
// cache and set associativity; §3.1's non-snooping prefetch buffer; §3.3's
// reliance on the Illinois private-clean state).

// AblationRow is one configuration's headline metrics.
type AblationRow struct {
	// Label identifies the varied parameter value ("64KB", "2-way", ...).
	Label string
	// Strategy is the prefetch discipline simulated.
	Strategy prefetch.Strategy
	// RelTime is execution time relative to the row marked baseline (the
	// first row of the sweep with the same strategy).
	RelTime float64
	CPUMR   float64
	InvalMR float64
	FSMR    float64
	// UpdMR is word-update broadcasts per demand reference — the sustained
	// bus cost a write-update protocol (Dragon) pays in place of
	// invalidation misses. Zero under write-invalidate protocols.
	UpdMR   float64
	BusUtil float64
	// InvalShare is invalidation misses as a fraction of CPU misses.
	InvalShare float64
}

func (s *Suite) runConfig(ctx context.Context, label, wl string, strat prefetch.Strategy, cfg sim.Config,
	restructured bool, annotate func(prefetch.Options) prefetch.Options) (*sim.Result, error) {
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	// Ablation traces must be generated with the ablation geometry so the
	// layouts (conflict-pair placement, padding) stay consistent with the
	// simulated cache. The trace cache keys on geometry, so sweeps that vary
	// only the simulator configuration (protocol, latency, distance, victim
	// cache) share one plan, as do ablations at the default geometry
	// and the main suite grid.
	opts := prefetch.Options{Strategy: strat, Geometry: cfg.Geometry}
	if annotate != nil {
		opts = annotate(opts)
	}
	cfg.Label = label
	return s.runCell(ctx, cfg, wl, restructured, cfg.Geometry, prefetch.Oracle, opts, nil)
}

// variantRun is one cell of an ablation sweep.
type variantRun struct {
	label        string
	workload     string
	strat        prefetch.Strategy
	cfg          sim.Config
	restructured bool
	annotate     func(prefetch.Options) prefetch.Options
}

// runVariants executes an ablation sweep on the suite's worker pool and
// returns the results in input (canonical) order, so downstream baseline
// arithmetic sees the same sequence a serial sweep would have produced.
// Unlike the suite grid, ablation sweeps fail outright on the first failing
// variant (in canonical order) — they are supplementary sweeps with
// within-sweep baselines, so a partial sweep would mislead more than it
// informs.
func (s *Suite) runVariants(ctx context.Context, sweep string, variants []variantRun) ([]*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tasks := make([]runner.Task, len(variants))
	results := make([]*sim.Result, len(variants))
	for i, v := range variants {
		label := fmt.Sprintf("ablation:%s/%s/%s/%s", sweep, v.workload, v.label, v.strat)
		tasks[i] = runner.Task{
			Label: label,
			Run: func(ctx context.Context) error {
				err, _ := runner.Retry(ctx, s.retryPolicy(label), func(ctx context.Context) error {
					res, err := s.runConfig(ctx, label, v.workload, v.strat, v.cfg, v.restructured, v.annotate)
					if err != nil {
						return err
					}
					results[i] = res
					return nil
				})
				return err
			},
		}
	}
	errs, times := s.pool.Do(ctx, tasks, nil)
	s.recordTimings(times)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s (%s): %w", variants[i].label, sweep, err)
		}
	}
	return results, nil
}

func ablationRow(label string, strat prefetch.Strategy, res *sim.Result, baseline uint64) AblationRow {
	row := AblationRow{
		Label:    label,
		Strategy: strat,
		CPUMR:    res.CPUMissRate(),
		InvalMR:  res.InvalidationMissRate(),
		FSMR:     res.FalseSharingMissRate(),
		UpdMR:    res.UpdateRate(),
		BusUtil:  res.BusUtilization(),
	}
	if baseline > 0 {
		row.RelTime = float64(res.Cycles) / float64(baseline)
	} else {
		row.RelTime = 1
	}
	if total := res.Counters.TotalCPUMisses(); total > 0 {
		row.InvalShare = float64(res.Counters.InvalidationMisses()) / float64(total)
	}
	return row
}

// AblationCacheSize sweeps the cache capacity on one workload under NP. The
// paper's reported effect: larger caches remove non-sharing misses, so
// invalidation misses dominate even more.
func (s *Suite) AblationCacheSize(ctx context.Context, wl string, sizesKB []int) ([]AblationRow, error) {
	if len(sizesKB) == 0 {
		sizesKB = []int{16, 32, 64, 128}
	}
	var variants []variantRun
	for _, kb := range sizesKB {
		cfg := sim.DefaultConfig()
		cfg.Geometry = memory.Geometry{CacheSize: kb * 1024, LineSize: 32, Assoc: 1}
		variants = append(variants, variantRun{
			label: fmt.Sprintf("%dKB", kb), workload: wl, strat: prefetch.NP, cfg: cfg,
		})
	}
	return s.sweepRows(ctx, "cache-size", variants)
}

// sweepRows runs a sweep whose baseline is its first variant's cycles.
func (s *Suite) sweepRows(ctx context.Context, sweep string, variants []variantRun) ([]AblationRow, error) {
	results, err := s.runVariants(ctx, sweep, variants)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var base uint64
	for i, res := range results {
		if base == 0 {
			base = res.Cycles
		}
		rows = append(rows, ablationRow(variants[i].label, variants[i].strat, res, base))
	}
	return rows, nil
}

// AblationLineSize sweeps the cache-line size under NP. The paper's
// reported effect: larger blocks increase false sharing and with it the
// invalidation miss total.
func (s *Suite) AblationLineSize(ctx context.Context, wl string, sizes []int) ([]AblationRow, error) {
	if len(sizes) == 0 {
		sizes = []int{16, 32, 64, 128}
	}
	var variants []variantRun
	for _, ls := range sizes {
		cfg := sim.DefaultConfig()
		cfg.Geometry = memory.Geometry{CacheSize: 32 * 1024, LineSize: ls, Assoc: 1}
		variants = append(variants, variantRun{
			label: fmt.Sprintf("%dB", ls), workload: wl, strat: prefetch.NP, cfg: cfg,
		})
	}
	return s.sweepRows(ctx, "line-size", variants)
}

// AblationAssociativity compares the direct-mapped cache against
// set-associative ones and a direct-mapped cache with a victim cache, under
// PREF on Topopt — the paper's suggestion for the conflict misses
// prefetching introduces ("the magnitude of this conflict would likely be
// reduced by a victim cache or a set-associative cache", §4.3).
func (s *Suite) AblationAssociativity(ctx context.Context, wl string) ([]AblationRow, error) {
	type variant struct {
		label  string
		assoc  int
		victim int
	}
	shapes := []variant{
		{"direct-mapped", 1, 0},
		{"direct+victim8", 1, 8},
		{"2-way", 2, 0},
		{"4-way", 4, 0},
	}
	var variants []variantRun
	for _, v := range shapes {
		cfg := sim.DefaultConfig()
		cfg.Geometry = memory.Geometry{CacheSize: 32 * 1024, LineSize: 32, Assoc: v.assoc}
		cfg.VictimCacheLines = v.victim
		variants = append(variants, variantRun{label: v.label, workload: wl, strat: prefetch.PREF, cfg: cfg})
	}
	return s.sweepRows(ctx, "associativity", variants)
}

// AblationProtocol compares the three coherence protocols — Illinois, the
// MSI ablation without its private-clean state, and Dragon write-update —
// under NP, PREF, and EXCL, at each given data-transfer cost (nil selects 8
// and 32 cycles, the ends of the paper's sweep). MSI quantifies why the
// paper calls the private-clean state its protocol's most important feature;
// Dragon answers the follow-up the related work poses: replacing
// invalidations with word updates removes invalidation misses entirely (the
// component prefetching cannot cover) but pays for them in sustained update
// traffic, and the higher the transfer cost the more that traffic competes
// with fills for the bus. The baseline is Illinois/NP at the first transfer
// cost.
func (s *Suite) AblationProtocol(ctx context.Context, wl string, transfers []int) ([]AblationRow, error) {
	if len(transfers) == 0 {
		transfers = []int{8, 32}
	}
	var variants []variantRun
	for _, tc := range transfers {
		for _, proto := range []sim.Protocol{sim.Illinois, sim.MSI, sim.Dragon} {
			for _, strat := range []prefetch.Strategy{prefetch.NP, prefetch.PREF, prefetch.EXCL} {
				cfg := sim.DefaultConfig()
				cfg.Protocol = proto
				cfg.TransferCycles = tc
				variants = append(variants, variantRun{
					label: fmt.Sprintf("%s/t%d", proto, tc), workload: wl, strat: strat, cfg: cfg,
				})
			}
		}
	}
	return s.sweepRows(ctx, "protocol", variants)
}

// AblationPrefetchPlacement compares cache prefetching against the
// non-snooping prefetch buffer of §3.1. Buffered prefetching cannot touch
// write-shared data, so on these workloads it covers far less — the paper's
// reason to study cache prefetching only.
func (s *Suite) AblationPrefetchPlacement(ctx context.Context, wl string) ([]AblationRow, error) {
	np := sim.DefaultConfig()
	buf := sim.DefaultConfig()
	buf.PrefetchTarget = sim.PrefetchToBuffer
	variants := []variantRun{
		{label: "no prefetch", workload: wl, strat: prefetch.NP, cfg: np},
		{label: "cache prefetch", workload: wl, strat: prefetch.PREF, cfg: np},
		{label: "buffer prefetch", workload: wl, strat: prefetch.PREF, cfg: buf,
			annotate: func(o prefetch.Options) prefetch.Options {
				o.ExcludeWriteShared = true
				return o
			}},
	}
	return s.sweepRows(ctx, "placement", variants)
}

// RenderAblation formats any ablation sweep.
func RenderAblation(title string, rows []AblationRow) string {
	t := report.NewTable(title,
		"Config", "Strategy", "Rel. time", "CPU MR", "Inval MR", "FS MR", "Upd MR", "Inval share", "Bus util")
	for _, r := range rows {
		t.AddRow(r.Label, r.Strategy.String(),
			fmt.Sprintf("%.3f", r.RelTime), fmt.Sprintf("%.4f", r.CPUMR),
			fmt.Sprintf("%.4f", r.InvalMR), fmt.Sprintf("%.4f", r.FSMR),
			fmt.Sprintf("%.4f", r.UpdMR),
			fmt.Sprintf("%.0f%%", 100*r.InvalShare), fmt.Sprintf("%.2f", r.BusUtil))
	}
	return t.String()
}

// AblationDistance sweeps the prefetch distance under PREF (the §4.3
// study): short distances leave prefetches in progress, long ones trade
// them for conflict misses, and "increasing the prefetch distance to the
// point that virtually all prefetches complete does not pay off".
func (s *Suite) AblationDistance(ctx context.Context, wl string, distances []int) ([]AblationRow, error) {
	if len(distances) == 0 {
		distances = []int{25, 50, 100, 200, 400, 800}
	}
	cfg := sim.DefaultConfig()
	// Baseline: NP at the same architecture (the sweep's first variant).
	variants := []variantRun{{label: "NP", workload: wl, strat: prefetch.NP, cfg: cfg}}
	for _, d := range distances {
		d := d
		variants = append(variants, variantRun{
			label: fmt.Sprintf("dist %d", d), workload: wl, strat: prefetch.PREF, cfg: cfg,
			annotate: func(o prefetch.Options) prefetch.Options {
				o.Distance = d
				return o
			}})
	}
	return s.sweepRows(ctx, "distance", variants)
}

// AblationMemLatency sweeps the total memory latency under NP and PREF. The
// paper's premise: "prefetching is less useful and possibly harmful if
// there is little latency to hide" — at low latency the gains collapse.
func (s *Suite) AblationMemLatency(ctx context.Context, wl string, latencies []int) ([]AblationRow, error) {
	if len(latencies) == 0 {
		latencies = []int{25, 50, 100, 200}
	}
	var variants []variantRun
	for _, lat := range latencies {
		cfg := sim.DefaultConfig()
		cfg.MemLatency = lat
		if cfg.TransferCycles > lat {
			cfg.TransferCycles = lat
		}
		label := fmt.Sprintf("latency %d", lat)
		variants = append(variants,
			variantRun{label: label, workload: wl, strat: prefetch.NP, cfg: cfg},
			variantRun{label: label, workload: wl, strat: prefetch.PREF, cfg: cfg})
	}
	results, err := s.runVariants(ctx, "mem-latency", variants)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i := 0; i < len(results); i += 2 {
		np, pf := results[i], results[i+1]
		// RelTime here is PREF relative to NP at the same latency.
		rows = append(rows, ablationRow(variants[i].label, prefetch.PREF, pf, np.Cycles))
	}
	return rows, nil
}
