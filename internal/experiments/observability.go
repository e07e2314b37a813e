package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
	"busprefetch/internal/runner"
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

// ObsStrategies lists the prefetching strategies the observability section
// profiles: every discipline that actually issues prefetches.
func ObsStrategies() []prefetch.Strategy {
	return []prefetch.Strategy{prefetch.PREF, prefetch.EXCL, prefetch.LPD, prefetch.PWS}
}

// ObsTransfer is the data-transfer cost the observability section runs at —
// the paper's headline T=8 point.
const ObsTransfer = 8

// ObsRow is one cell's row: a (workload, strategy) pair's
// observability summary plus the demand-miss count its coverage metric
// needs.
type ObsRow struct {
	Workload string
	Strategy prefetch.Strategy
	Transfer int
	Summary  *obs.Summary
	// AdjustedCPUMisses is the run's demand-miss count excluding
	// prefetch-in-progress misses (the coverage denominator's second term).
	AdjustedCPUMisses uint64
}

// Label returns the row's metrics-report label, "workload/strategy/transfer".
func (r ObsRow) Label() string {
	return fmt.Sprintf("%s/%s/%d", r.Workload, r.Strategy, r.Transfer)
}

// obsKeys returns the slice — the Figure 3 workloads (or the given
// ones) under ObsStrategies at ObsTransfer — in canonical (workload-major)
// order, on the suite's machine with the oracle prefetcher.
func (s *Suite) obsKeys(workloads []string) []Key {
	if len(workloads) == 0 {
		workloads = Figure3Workloads()
	}
	strategies := ObsStrategies()
	keys := make([]Key, 0, len(workloads)*len(strategies))
	for _, wl := range workloads {
		for _, st := range strategies {
			k := s.onSuite(Key{Workload: wl, Strategy: st, Transfer: ObsTransfer})
			k.Prefetcher = prefetch.Oracle
			keys = append(keys, k)
		}
	}
	return keys
}

// Observability runs the slice on the suite's worker pool and
// returns its rows in canonical (workload-major) order. Recording is
// deterministic, so the rows are byte-identical at any worker count.
func (s *Suite) Observability(ctx context.Context, workloads []string) ([]ObsRow, error) {
	keys := s.obsKeys(workloads)
	res, err := s.results(ctx, keys)
	if err != nil {
		return nil, err
	}
	rows := make([]ObsRow, len(keys))
	for i, k := range keys {
		rows[i] = ObsRow{Workload: k.Workload, Strategy: k.Strategy, Transfer: k.Transfer,
			Summary: res[i].Obs, AdjustedCPUMisses: res[i].Counters.AdjustedCPUMisses()}
	}
	return rows, nil
}

// RecordChromeTrace re-runs the single cell named by label —
// "workload/strategy/transfer", for example "mp3d/PREF/8" — on the
// observability slice's machine with full span recording enabled and
// writes its Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) to w. Span recording holds every phase and bus interval
// in memory, so this is a one-cell export, not a suite mode, and it
// bypasses the memo and the checkpoint store.
func (s *Suite) RecordChromeTrace(label string, w io.Writer) error {
	parts := strings.Split(label, "/")
	if len(parts) != 3 {
		return fmt.Errorf("bad trace cell %q (want workload/strategy/transfer, e.g. mp3d/PREF/8)", label)
	}
	strat, err := prefetch.ParseStrategy(parts[1])
	if err != nil {
		return fmt.Errorf("trace cell %q: %w", label, err)
	}
	transfer, err := strconv.Atoi(parts[2])
	if err != nil {
		return fmt.Errorf("trace cell %q: bad transfer %q", label, parts[2])
	}
	k := s.onSuite(Key{Workload: parts[0], Strategy: strat, Transfer: transfer})
	k.Prefetcher = prefetch.Oracle
	_, rec, err := s.simulate(context.Background(), k, obs.Options{Spans: true})
	if err != nil {
		return fmt.Errorf("trace cell %q: %w", label, err)
	}
	return rec.WriteChromeTrace(w)
}

// MetricsCells converts the slice's rows to the metrics-report form.
func MetricsCells(rows []ObsRow) []runner.CellMetrics {
	out := make([]runner.CellMetrics, len(rows))
	for i, r := range rows {
		out[i] = runner.CellMetrics{Cell: r.Label(), Summary: r.Summary}
	}
	return out
}

// RenderObservability formats the observability section: one row per cell
// with the lifetime-class shares, the taxonomy metrics, and issue→fill
// latency percentiles interpolated from the fixed-bucket histograms.
func RenderObservability(rows []ObsRow) string {
	t := report.NewTable(
		fmt.Sprintf("Observability: prefetch lifetimes and latency (T=%d)", ObsTransfer),
		"Workload", "Strategy", "Fetched",
		"Useful", "Late", "Evicted", "Inval", "Unused",
		"Acc", "Timely", "Cover", "p50", "p90", "p99")
	for _, r := range rows {
		s := r.Summary
		total := s.LifetimesTotal()
		share := func(class obs.LifetimeClass) string {
			if total == 0 {
				return "—"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(s.LifetimeCount(class))/float64(total))
		}
		t.AddRow(r.Workload, r.Strategy.String(), fmt.Sprintf("%d", total),
			share(obs.LifeUseful), share(obs.LifeLate), share(obs.LifeEvicted),
			share(obs.LifeInvalidated), share(obs.LifeUnused),
			fmt.Sprintf("%.2f", s.Accuracy()), fmt.Sprintf("%.2f", s.Timeliness()),
			fmt.Sprintf("%.2f", s.Coverage(r.AdjustedCPUMisses)),
			fmt.Sprintf("%.0f", s.IssueToFill.Quantile(0.50)),
			fmt.Sprintf("%.0f", s.IssueToFill.Quantile(0.90)),
			fmt.Sprintf("%.0f", s.IssueToFill.Quantile(0.99)))
	}
	return t.String()
}
