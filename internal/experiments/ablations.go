package experiments

import (
	"context"
	"fmt"

	"busprefetch/internal/coherence"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
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

// sweep is one ablation sweep: its table title, its cells, and the row
// label each cell's Key implies. The cells run on the paper's machine (see
// Config), at the paper's T=8 unless the sweep varies the transfer cost
// itself.
type sweep struct {
	title string
	keys  []Key
	label func(Key) string
}

// ablationKey is strategy st on wl on the paper's machine at T=8.
func ablationKey(wl string, st prefetch.Strategy) Key {
	return Key{Workload: wl, Strategy: st, Transfer: paper.TransferCycles}
}

// rows runs the sweep and returns one row per cell, relative to the
// sweep's first cell.
func (s *Suite) rows(ctx context.Context, sw sweep) ([]AblationRow, error) {
	res, err := s.results(ctx, sw.keys)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(res))
	var base uint64
	for i, r := range res {
		if base == 0 {
			base = r.Cycles
		}
		rows[i] = ablationRow(sw.label(sw.keys[i]), sw.keys[i].Strategy, r, base)
	}
	return rows, nil
}

// reportSweeps are the ablations section's sweeps and reportProtocols the
// protocols section's. They run on the paper's machine, whatever the suite,
// so they are built once.
var (
	reportSweeps = [...]sweep{
		cacheSizeSweep("mp3d", nil),
		lineSizeSweep("mp3d", nil),
		associativitySweep("topopt"),
		placementSweep("mp3d"),
	}
	reportProtocols = protocolSweep("mp3d", nil)
)

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
	return s.rows(ctx, cacheSizeSweep(wl, sizesKB))
}

func cacheSizeSweep(wl string, sizesKB []int) sweep {
	if len(sizesKB) == 0 {
		sizesKB = []int{16, 32, 64, 128}
	}
	sw := sweep{title: "Ablation: cache size (" + wl + ", NP, T=8)", keys: make([]Key, len(sizesKB)),
		label: func(k Key) string { return fmt.Sprintf("%dKB", k.Geometry.CacheSize/1024) }}
	for i, kb := range sizesKB {
		sw.keys[i] = ablationKey(wl, prefetch.NP)
		sw.keys[i].Geometry = memory.Geometry{CacheSize: kb * 1024, LineSize: 32, Assoc: 1}
	}
	return sw
}

// AblationLineSize sweeps the cache-line size under NP. The paper's
// reported effect: larger blocks increase false sharing and with it the
// invalidation miss total.
func (s *Suite) AblationLineSize(ctx context.Context, wl string, sizes []int) ([]AblationRow, error) {
	return s.rows(ctx, lineSizeSweep(wl, sizes))
}

func lineSizeSweep(wl string, sizes []int) sweep {
	if len(sizes) == 0 {
		sizes = []int{16, 32, 64, 128}
	}
	sw := sweep{title: "Ablation: line size (" + wl + ", NP, T=8)", keys: make([]Key, len(sizes)),
		label: func(k Key) string { return fmt.Sprintf("%dB", k.Geometry.LineSize) }}
	for i, ls := range sizes {
		sw.keys[i] = ablationKey(wl, prefetch.NP)
		sw.keys[i].Geometry = memory.Geometry{CacheSize: 32 * 1024, LineSize: ls, Assoc: 1}
	}
	return sw
}

// AblationAssociativity compares the direct-mapped cache against
// set-associative ones and a direct-mapped cache with a victim cache, under
// PREF on Topopt — the paper's suggestion for the conflict misses
// prefetching introduces ("the magnitude of this conflict would likely be
// reduced by a victim cache or a set-associative cache", §4.3).
func (s *Suite) AblationAssociativity(ctx context.Context, wl string) ([]AblationRow, error) {
	return s.rows(ctx, associativitySweep(wl))
}

func associativitySweep(wl string) sweep {
	sw := sweep{title: "Ablation: associativity & victim cache (" + wl + ", PREF, T=8)", keys: make([]Key, 4),
		label: func(k Key) string {
			switch {
			case k.VictimLines > 0:
				return fmt.Sprintf("direct+victim%d", k.VictimLines)
			case k.Geometry.Assoc == 1:
				return "direct-mapped"
			}
			return fmt.Sprintf("%d-way", k.Geometry.Assoc)
		}}
	for i, shape := range [4][2]int32{{1, 0}, {1, 8}, {2, 0}, {4, 0}} {
		sw.keys[i] = ablationKey(wl, prefetch.PREF)
		sw.keys[i].Geometry = memory.Geometry{CacheSize: 32 * 1024, LineSize: 32, Assoc: int(shape[0])}
		sw.keys[i].VictimLines = shape[1]
	}
	return sw
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
	return s.rows(ctx, protocolSweep(wl, transfers))
}

func protocolSweep(wl string, transfers []int) sweep {
	if len(transfers) == 0 {
		transfers = []int{8, 32}
	}
	protocols := [...]coherence.Kind{coherence.Illinois, coherence.MSI, coherence.Dragon}
	strategies := [...]prefetch.Strategy{prefetch.NP, prefetch.PREF, prefetch.EXCL}
	sw := sweep{title: "Ablation: coherence protocols (" + wl + ", T=8)",
		keys:  make([]Key, 0, len(transfers)*len(protocols)*len(strategies)),
		label: func(k Key) string { return fmt.Sprintf("%s/t%d", k.Protocol, k.Transfer) }}
	for _, tc := range transfers {
		for _, proto := range protocols {
			for _, strat := range strategies {
				k := ablationKey(wl, strat)
				k.Protocol, k.Transfer = proto, tc
				sw.keys = append(sw.keys, k)
			}
		}
	}
	return sw
}

// AblationPrefetchPlacement compares cache prefetching against the
// non-snooping prefetch buffer of §3.1. Buffered prefetching cannot touch
// write-shared data, so on these workloads it covers far less — the paper's
// reason to study cache prefetching only.
func (s *Suite) AblationPrefetchPlacement(ctx context.Context, wl string) ([]AblationRow, error) {
	return s.rows(ctx, placementSweep(wl))
}

func placementSweep(wl string) sweep {
	buffered := ablationKey(wl, prefetch.PREF)
	buffered.Buffer = true
	return sweep{title: "Ablation: cache vs buffer prefetching (" + wl + ", T=8)",
		keys: []Key{ablationKey(wl, prefetch.NP), ablationKey(wl, prefetch.PREF), buffered},
		label: func(k Key) string {
			switch {
			case k.Strategy == prefetch.NP:
				return "no prefetch"
			case k.Buffer:
				return "buffer prefetch"
			}
			return "cache prefetch"
		}}
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
	// Baseline: NP at the same architecture (the sweep's first cell).
	sw := sweep{keys: []Key{ablationKey(wl, prefetch.NP)}, label: func(k Key) string {
		if k.Strategy == prefetch.NP {
			return "NP"
		}
		return fmt.Sprintf("dist %d", k.Distance)
	}}
	for _, d := range distances {
		k := ablationKey(wl, prefetch.PREF)
		k.Distance = int32(d)
		sw.keys = append(sw.keys, k)
	}
	return s.rows(ctx, sw)
}

// AblationMemLatency sweeps the total memory latency under NP and PREF. The
// paper's premise: "prefetching is less useful and possibly harmful if
// there is little latency to hide" — at low latency the gains collapse.
func (s *Suite) AblationMemLatency(ctx context.Context, wl string, latencies []int) ([]AblationRow, error) {
	if len(latencies) == 0 {
		latencies = []int{25, 50, 100, 200}
	}
	var keys []Key
	for _, lat := range latencies {
		for _, st := range []prefetch.Strategy{prefetch.NP, prefetch.PREF} {
			k := ablationKey(wl, st)
			k.MemLatency, k.Transfer = int32(lat), min(k.Transfer, lat)
			keys = append(keys, k)
		}
	}
	res, err := s.results(ctx, keys)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i := 0; i < len(res); i += 2 {
		// RelTime here is PREF relative to NP at the same latency.
		rows = append(rows, ablationRow(fmt.Sprintf("latency %d", latencies[i/2]), prefetch.PREF, res[i+1], res[i].Cycles))
	}
	return rows, nil
}
