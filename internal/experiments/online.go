package experiments

import (
	"context"

	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
)

// The online section asks the question the oracle annotator cannot: does the
// paper's conclusion — prefetching helps little on a bus-based machine
// because the bus, not the miss rate, is the bottleneck — survive when the
// prefetcher is *imperfect*? It re-runs the transfer-cost comparison on the
// Figure 3 workloads with the prefetch decisions made at simulation time by
// each online engine (stride, temporal, pointer), beside the oracle's PREF
// annotation, at the paper's cheap (T=8) and expensive (T=32) bus points,
// with the obs recorder classifying every prefetch's fate. Its rows run on
// the grid's machine and normalize against the grid's own NP cells, so the
// relative times read off the same ruler as Figure 2. With the default
// Prefetcher the oracle rows are grid PREF cells wherever the grid sweeps
// their transfer (at T=8, the observability slice's too), so only the
// engine rows simulate. The oracle row annotates PREF offline; an engine
// row replays the bare demand stream and lets the engine issue at
// simulation time under the same PREF discipline, so the two differ only in
// *when* the prefetch decision is made.

// onlineTransfers are the data-transfer costs the online section sweeps:
// the paper's headline T=8 point and the bus-saturated T=32 extreme, where
// the limitation argument is sharpest.
var onlineTransfers = []int{8, 32}

// onlineKeys returns the sweep's n cells — the given workloads under every
// prefetcher kind at the given transfers, in workload-major, then kind,
// then transfer order, each running PREF on the suite's machine — followed
// by the n grid NP baselines they normalize against, in the same order.
func (s *Suite) onlineKeys(workloads []string, transfers []int) []Key {
	kinds := prefetch.Kinds()
	n := len(workloads) * len(kinds) * len(transfers)
	keys := make([]Key, 0, 2*n)
	for _, wl := range workloads {
		for _, kind := range kinds {
			for _, tr := range transfers {
				k := s.onSuite(Key{Workload: wl, Strategy: prefetch.PREF, Transfer: tr})
				k.Prefetcher = kind
				keys = append(keys, k)
			}
		}
	}
	for _, k := range keys[:n] {
		keys = append(keys, s.onSuite(Key{Workload: k.Workload, Strategy: prefetch.NP, Transfer: k.Transfer}))
	}
	return keys
}

// online runs the sweep on the suite's worker pool and writes one row per
// cell: the execution time relative to the NP baseline, the adjusted miss
// rate, and the prefetch-fate columns, so oracle and engine rows read off
// the same ruler.
func (s *Suite) online(ctx context.Context, workloads []string, transfers []int) (string, error) {
	keys := s.onlineKeys(workloads, transfers)
	res, err := s.results(ctx, keys)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Online engines vs oracle annotation (PREF discipline)",
		append([]string{"Workload", "Engine", "T", "Rel.time", "adj MR"}, fateHeaders...)...)
	n := len(keys) / 2
	for i, k := range keys[:n] {
		rel := 0.0
		if np := res[n+i].Cycles; np > 0 {
			rel = float64(res[i].Cycles) / float64(np)
		}
		t.AddRow(append([]interface{}{k.Workload, k.Prefetcher.String(), k.Transfer, rel,
			f4(res[i].AdjustedCPUMissRate())}, fates(res[i])...)...)
	}
	return t.String(), nil
}
