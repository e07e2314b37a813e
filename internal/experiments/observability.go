package experiments

import (
	"context"
	"fmt"

	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
)

// The observability section records a focused slice of the grid — the
// Figure 3 workloads under the four prefetching strategies at T=8 — and
// reports what the end-of-run aggregates cannot: the fate of each prefetch
// that reached the bus (the paper's §4 prefetch-fate discussion, cast in the
// coverage/accuracy/timeliness taxonomy of the prefetching-survey
// literature) and the distribution — not just the mean — of prefetch
// latencies, per the service-discipline analyses of the related bus-modeling
// work. Every suite cell carries its recorder's summary, and recording never
// changes a reported number, so the slice's cells are plain cells on the
// suite's machine with the oracle prefetcher: with the default Prefetcher
// and T=8 in the sweep they are grid cells, and the slice simulates nothing
// of its own.

// obsKeys returns the slice — the given workloads under every strategy that
// issues prefetches (PREF, EXCL, LPD, PWS) at the paper's T=8 — in
// workload-major order, on the suite's machine with the oracle prefetcher.
func (s *Suite) obsKeys(workloads []string) []Key {
	strategies := prefetch.Strategies()[1:] // every strategy but NP, which Strategies lists first
	keys := make([]Key, 0, len(workloads)*len(strategies))
	for _, wl := range workloads {
		for _, st := range strategies {
			k := s.onSuite(Key{Workload: wl, Strategy: st, Transfer: paper.TransferCycles})
			k.Prefetcher = prefetch.Oracle
			keys = append(keys, k)
		}
	}
	return keys
}

// observability runs the slice over workloads on the suite's worker pool
// and writes one row per cell: the prefetch-fate columns, then the
// issue→fill latency percentiles interpolated from the fixed-bucket
// histogram. Recording is deterministic, so the table is byte-identical at
// any worker count.
func (s *Suite) observability(ctx context.Context, workloads []string) (string, error) {
	keys := s.obsKeys(workloads)
	res, err := s.results(ctx, keys)
	if err != nil {
		return "", err
	}
	headers := append(append([]string{"Workload", "Strategy"}, fateHeaders...), "p50", "p90", "p99")
	t := report.NewTable(fmt.Sprintf("Observability: prefetch lifetimes and latency (T=%d)", paper.TransferCycles), headers...)
	for i, k := range keys {
		row := append([]interface{}{k.Workload, k.Strategy.String()}, fates(res[i])...)
		for _, q := range [...]float64{0.50, 0.90, 0.99} {
			row = append(row, fmt.Sprintf("%.0f", res[i].Obs.IssueToFill.Quantile(q)))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// fateHeaders heads the prefetch-fate columns fates fills.
var fateHeaders = []string{"Fetched", "Useful", "Late", "Evicted", "Inval", "Unused", "Acc", "Timely", "Cover"}

// fates returns a cell's prefetch-fate columns: the prefetches that reached
// the bus, each lifetime class's share of them, and the taxonomy metrics.
func fates(res *sim.Result) []interface{} {
	sum := res.Obs
	total := sum.LifetimesTotal()
	row := []interface{}{total}
	for _, class := range [...]obs.LifetimeClass{obs.LifeUseful, obs.LifeLate, obs.LifeEvicted, obs.LifeInvalidated, obs.LifeUnused} {
		share := "—"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(sum.LifetimeCount(class))/float64(total))
		}
		row = append(row, share)
	}
	return append(row, fmt.Sprintf("%.2f", sum.Accuracy()), fmt.Sprintf("%.2f", sum.Timeliness()),
		fmt.Sprintf("%.2f", sum.Coverage(res.Counters.AdjustedCPUMisses())))
}

// Metrics runs the observability slice over the Figure 3 workloads and
// returns its busprefetch-metrics/v1 report, labelled with the suite's
// effective scale and seed, with failed's cells (when non-nil) as its
// errors.
func (s *Suite) Metrics(ctx context.Context, failed *CellErrors) (*runner.MetricsReport, error) {
	keys := s.obsKeys(Figure3Workloads())
	res, err := s.results(ctx, keys)
	if err != nil {
		return nil, err
	}
	cells := make([]runner.CellMetrics, len(keys))
	for i, k := range keys {
		cells[i] = runner.CellMetrics{Cell: fmt.Sprintf("%s/%s/%d", k.Workload, k.Strategy, k.Transfer), Summary: res[i].Obs}
	}
	m := runner.NewMetricsReport(s.cfg.Scale, s.cfg.Seed, cells)
	if failed != nil {
		m.SetErrors(failed.Failures())
	}
	return m, nil
}
