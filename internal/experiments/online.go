package experiments

import (
	"context"
	"fmt"

	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
	"busprefetch/internal/sim"
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
// engine rows simulate.

// OnlineTransfers lists the data-transfer costs the online section sweeps:
// the paper's headline T=8 point and the bus-saturated T=32 extreme, where
// the limitation argument is sharpest.
func OnlineTransfers() []int { return []int{8, 32} }

// OnlineRow is one row of the online-vs-oracle sweep: a (workload,
// prefetcher, transfer) triple's execution time, miss counters, engine
// bookkeeping, and recorded prefetch lifetimes.
type OnlineRow struct {
	Workload string
	Engine   prefetch.Kind
	Transfer int
	// Cycles is the row's parallel execution time; NPCycles is the grid's
	// no-prefetching baseline at the same transfer cost (the relative-time
	// denominator).
	Cycles   uint64
	NPCycles uint64
	// Counters is the run's full counter block (miss rates, online issue
	// accounting).
	Counters sim.Counters
	// Summary is the obs lifetime/latency record.
	Summary *obs.Summary
	// Stats is the engine's own bookkeeping; nil on the oracle row.
	Stats *prefetch.EngineStats
}

// Label returns the row's label, "workload/engine/transfer".
func (r OnlineRow) Label() string {
	return fmt.Sprintf("%s/%s/%d", r.Workload, r.Engine, r.Transfer)
}

// RelativeTime returns the row's execution time relative to the NP baseline
// (the paper's headline metric; below 1 is a speedup).
func (r OnlineRow) RelativeTime() float64 {
	if r.NPCycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.NPCycles)
}

// onlineKeys returns the sweep's n cells — the Figure 3 workloads
// (or the given ones) under every prefetcher kind at OnlineTransfers (or the
// given transfers), in canonical (workload-major, then kind, then transfer)
// order, each running PREF on the suite's machine — followed by the n grid
// NP baselines they normalize against, in the same order.
func (s *Suite) onlineKeys(workloads []string, transfers []int) []Key {
	if len(workloads) == 0 {
		workloads = Figure3Workloads()
	}
	if len(transfers) == 0 {
		transfers = OnlineTransfers()
	}
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

// Online runs the online-vs-oracle sweep on the suite's worker pool and
// returns its rows in canonical order. The oracle row annotates PREF
// offline; an engine row replays the bare demand stream and lets the engine
// issue at simulation time under the same PREF discipline, so the two
// differ only in *when* the prefetch decision is made.
func (s *Suite) Online(ctx context.Context, workloads []string, transfers []int) ([]OnlineRow, error) {
	keys := s.onlineKeys(workloads, transfers)
	res, err := s.results(ctx, keys)
	if err != nil {
		return nil, err
	}
	n := len(keys) / 2
	rows := make([]OnlineRow, n)
	for i, k := range keys[:n] {
		r := res[i]
		rows[i] = OnlineRow{Workload: k.Workload, Engine: k.Prefetcher, Transfer: k.Transfer,
			Cycles: r.Cycles, NPCycles: res[n+i].Cycles, Counters: r.Counters, Summary: r.Obs, Stats: r.Online}
	}
	return rows, nil
}

// RenderOnline formats the online section: one row per cell with the
// relative execution time, the adjusted miss rate, and the recorded
// prefetch-fate taxonomy, so oracle and engine rows read off the same
// ruler.
func RenderOnline(rows []OnlineRow) string {
	t := report.NewTable(
		"Online engines vs oracle annotation (PREF discipline)",
		"Workload", "Engine", "T", "Rel.time", "adj MR", "Fetched",
		"Useful", "Late", "Evicted", "Inval", "Unused",
		"Acc", "Timely", "Cover")
	for _, c := range rows {
		s := c.Summary
		total := s.LifetimesTotal()
		share := func(class obs.LifetimeClass) string {
			if total == 0 {
				return "—"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(s.LifetimeCount(class))/float64(total))
		}
		adjMR := 0.0
		if refs := c.Counters.DemandRefs(); refs > 0 {
			adjMR = float64(c.Counters.AdjustedCPUMisses()) / float64(refs)
		}
		t.AddRow(c.Workload, c.Engine.String(), fmt.Sprintf("%d", c.Transfer),
			fmt.Sprintf("%.3f", c.RelativeTime()),
			fmt.Sprintf("%.4f", adjMR),
			fmt.Sprintf("%d", total),
			share(obs.LifeUseful), share(obs.LifeLate), share(obs.LifeEvicted),
			share(obs.LifeInvalidated), share(obs.LifeUnused),
			fmt.Sprintf("%.2f", s.Accuracy()), fmt.Sprintf("%.2f", s.Timeliness()),
			fmt.Sprintf("%.2f", s.Coverage(c.Counters.AdjustedCPUMisses())))
	}
	return t.String()
}
