package experiments

import (
	"context"
	"fmt"

	"busprefetch/internal/coherence"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
)

// The ablations reproduce the configuration variations the paper describes
// but does not tabulate (§3.3: "Several other configurations were
// simulated... with larger caches, non-sharing misses were reduced, making
// invalidation miss effects much more dominant; larger block sizes increased
// false sharing") and the design alternatives it points at (§4.3's victim
// cache and set associativity; §3.1's non-snooping prefetch buffer; §3.3's
// reliance on the Illinois private-clean state).

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

// reportSweeps are the ablations section's sweeps and reportProtocols the
// protocols section's. They run on the paper's machine, whatever the suite,
// so they are built once.
var (
	reportSweeps = [...]sweep{
		cacheSizeSweep("mp3d", 16, 32, 64, 128),
		lineSizeSweep("mp3d", 16, 32, 64, 128),
		associativitySweep("topopt"),
		placementSweep("mp3d"),
	}
	reportProtocols = protocolSweep("mp3d", 8, 32)
)

// ablation runs the sweep and writes its table: one row per cell, with the
// execution time relative to the sweep's first cell.
func (s *Suite) ablation(ctx context.Context, sw sweep) (string, error) {
	res, err := s.results(ctx, sw.keys)
	if err != nil {
		return "", err
	}
	t := report.NewTable(sw.title,
		"Config", "Strategy", "Rel. time", "CPU MR", "Inval MR", "FS MR", "Upd MR", "Inval share", "Bus util")
	var base uint64
	for i, r := range res {
		if base == 0 {
			base = r.Cycles
		}
		rel, share := 1.0, 0.0
		if base > 0 {
			rel = float64(r.Cycles) / float64(base)
		}
		if total := r.Counters.TotalCPUMisses(); total > 0 {
			share = float64(r.Counters.InvalidationMisses()) / float64(total)
		}
		t.AddRow(sw.label(sw.keys[i]), sw.keys[i].Strategy.String(), rel,
			f4(r.CPUMissRate()), f4(r.InvalidationMissRate()), f4(r.FalseSharingMissRate()), f4(r.UpdateRate()),
			fmt.Sprintf("%.0f%%", 100*share), fmt.Sprintf("%.2f", r.BusUtilization()))
	}
	return t.String(), nil
}

// cacheSizeSweep varies the cache capacity on one workload under NP. The
// paper's reported effect: larger caches remove non-sharing misses, so
// invalidation misses dominate even more.
func cacheSizeSweep(wl string, sizesKB ...int) sweep {
	sw := sweep{title: "Ablation: cache size (" + wl + ", NP, T=8)", keys: make([]Key, len(sizesKB)),
		label: func(k Key) string { return fmt.Sprintf("%dKB", k.Geometry.CacheSize/1024) }}
	for i, kb := range sizesKB {
		sw.keys[i] = ablationKey(wl, prefetch.NP)
		sw.keys[i].Geometry = memory.Geometry{CacheSize: kb * 1024, LineSize: 32, Assoc: 1}
	}
	return sw
}

// lineSizeSweep varies the cache-line size under NP. The paper's reported
// effect: larger blocks increase false sharing and with it the invalidation
// miss total.
func lineSizeSweep(wl string, sizes ...int) sweep {
	sw := sweep{title: "Ablation: line size (" + wl + ", NP, T=8)", keys: make([]Key, len(sizes)),
		label: func(k Key) string { return fmt.Sprintf("%dB", k.Geometry.LineSize) }}
	for i, ls := range sizes {
		sw.keys[i] = ablationKey(wl, prefetch.NP)
		sw.keys[i].Geometry = memory.Geometry{CacheSize: 32 * 1024, LineSize: ls, Assoc: 1}
	}
	return sw
}

// associativitySweep compares the direct-mapped cache against
// set-associative ones and a direct-mapped cache with a victim cache, under
// PREF — the paper's suggestion for the conflict misses prefetching
// introduces on Topopt ("the magnitude of this conflict would likely be
// reduced by a victim cache or a set-associative cache", §4.3).
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

// protocolSweep compares the three coherence protocols — Illinois, the MSI
// ablation without its private-clean state, and Dragon write-update — under
// NP, PREF, and EXCL, at each given data-transfer cost. MSI quantifies why
// the paper calls the private-clean state its protocol's most important
// feature; Dragon answers the follow-up the related work poses: replacing
// invalidations with word updates removes invalidation misses entirely (the
// component prefetching cannot cover) but pays for them in sustained update
// traffic, and the higher the transfer cost the more that traffic competes
// with fills for the bus. The baseline is Illinois/NP at the first transfer
// cost.
func protocolSweep(wl string, transfers ...int) sweep {
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

// placementSweep compares cache prefetching against the non-snooping
// prefetch buffer of §3.1. Buffered prefetching cannot touch write-shared
// data, so on these workloads it covers far less — the paper's reason to
// study cache prefetching only.
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
