package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"busprefetch"
	"busprefetch/internal/buildinfo"
	"busprefetch/internal/experiments"
	"busprefetch/internal/runner"
)

// SweepRequest is the body of POST /v1/sweeps: the sweep-shaping subset of
// experiments.Config (names, not parsed kinds — the handler validates and
// canonicalizes), plus which report sections to render. It is exactly the
// parameter surface of cmd/mkfigures, so a sweep served over HTTP and a
// sweep run from the command line are the same computation.
type SweepRequest struct {
	// Scale multiplies trace lengths (0 = 1.0, at most experiments.MaxScale).
	// Seed seeds the workload generators (0 = 1). MemLatency is the total
	// memory latency (0 = the paper's 100).
	Scale      float64 `json:"scale,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	MemLatency int     `json:"mem_latency,omitempty"`
	// Transfers is the data-transfer sweep, at most 16 values; empty
	// selects the paper's {4, 8, 16, 24, 32}.
	Transfers []int `json:"transfers,omitempty"`
	// Protocol, Prefetcher, Interconnect, Buses and Discipline shape the
	// machine every grid cell simulates, with the same names and defaults as
	// the mkfigures flags of the same name.
	Protocol     string `json:"protocol,omitempty"`
	Prefetcher   string `json:"prefetcher,omitempty"`
	Interconnect string `json:"interconnect,omitempty"`
	Buses        int    `json:"buses,omitempty"`
	Discipline   string `json:"discipline,omitempty"`
	// Sections selects which report sections to render (mkfigures -only,
	// but plural); empty renders the full report. Invalid names are a 400.
	Sections []string `json:"sections,omitempty"`
	// Metrics additionally runs the observability slice and attaches a
	// busprefetch-metrics/v1 report (mkfigures -metrics-out).
	Metrics bool `json:"metrics,omitempty"`
}

// sweepPlan is a validated SweepRequest: the suite configuration plus the
// canonical section list.
type sweepPlan struct {
	cfg      experiments.Config
	sections []string // canonical order; empty means all
	metrics  bool
}

func (p sweepPlan) want(name string) bool {
	if len(p.sections) == 0 {
		return true
	}
	for _, s := range p.sections {
		if strings.EqualFold(s, name) {
			return true
		}
	}
	return false
}

// maxTransfers caps a sweep's transfers list: every value multiplies the
// grid, and the paper's sweep has five.
const maxTransfers = 16

// planSweep validates a request into a sweepPlan, defaulting names the way
// mkfigures defaults its flags. Every validation failure is a 400 naming the
// offending field.
func planSweep(req SweepRequest, opts Options) (sweepPlan, error) {
	m, err := experiments.ParseMachine(req.MemLatency, req.Protocol, req.Prefetcher, req.Interconnect, req.Buses, req.Discipline)
	if err != nil {
		return sweepPlan{}, err
	}
	if err := experiments.CheckScale(req.Scale); err != nil {
		return sweepPlan{}, err
	}
	if len(req.Transfers) > maxTransfers {
		return sweepPlan{}, fmt.Errorf("transfers lists %d values, more than %d", len(req.Transfers), maxTransfers)
	}
	for _, t := range req.Transfers {
		if t <= 0 {
			return sweepPlan{}, fmt.Errorf("transfers must be positive, got %d", t)
		}
	}
	for _, s := range req.Sections {
		if !experiments.ValidSection(s) {
			return sweepPlan{}, fmt.Errorf("unknown section %q (valid: %s)",
				s, strings.Join(experiments.SectionNames(), ", "))
		}
	}
	// Canonicalize the section list into presentation order so two requests
	// naming the same sections in different orders (or cases) share a key.
	var sections []string
	if len(req.Sections) > 0 {
		for _, name := range experiments.SectionNames() {
			for _, s := range req.Sections {
				if strings.EqualFold(s, name) {
					sections = append(sections, name)
					break
				}
			}
		}
	}
	return sweepPlan{
		cfg: experiments.Config{
			Scale:        req.Scale,
			Seed:         req.Seed,
			MemLatency:   req.MemLatency,
			Transfers:    req.Transfers,
			Protocol:     m.Protocol,
			Prefetcher:   m.Prefetcher,
			Interconnect: m.Fabric,
			Parallelism:  opts.Shards,
			Timeout:      opts.Timeout,
			Retries:      opts.Retries,
			Checkpoints:  opts.Checkpoints,
		},
		sections: sections,
		metrics:  req.Metrics,
	}, nil
}

// key is the sweep's content-addressed result-store key. It extends the
// suite's canonical spec string (which already embeds the build revision)
// with the per-request fields the cell keys ignore: the transfer sweep and
// the rendered section list. Scheduling knobs — shards, timeout, retries —
// are deliberately absent. Shards never change the bytes (pinned by the
// determinism goldens); timeout and retries can — a cell that exhausts its
// budget is tolerated and annotated in the report — but such a degraded
// result is never cached (computeSweep flags it non-cacheable), so every
// payload stored under this key is the complete, budget-independent report.
func (p sweepPlan) key() string {
	cfg := p.cfg
	sections := p.sections
	if len(sections) == 0 {
		sections = []string{"all"}
	}
	return fmt.Sprintf("busprefetch-sweep/v1|%s|transfers=%v|sections=%s|metrics=%t",
		cfg.SpecString(), experiments.NewSuite(cfg).Config().Transfers,
		strings.Join(sections, ","), p.metrics)
}

// SweepResult is the payload of a completed sweep job (the "result" field of
// its resource). Report is byte-for-byte what mkfigures prints to stdout for
// the same configuration and sections. Bench is the computation's
// busprefetch-bench/v1 report, recorded when the sweep actually ran — a
// cached re-serve returns the original run's trajectory. Metrics (when
// requested) is the busprefetch-metrics/v1 observability report.
// FailedCells names any cells that failed after retries; the report
// annotates them in place, mkfigures-style, rather than failing the sweep.
// A result carrying FailedCells is served to its submitter but never enters
// the result store, so a resubmission (perhaps under a bigger -timeout /
// -retries budget) recomputes the full report.
type SweepResult struct {
	Report      string                `json:"report"`
	Bench       *runner.BenchReport   `json:"bench,omitempty"`
	Metrics     *runner.MetricsReport `json:"metrics,omitempty"`
	FailedCells []runner.CellFailure  `json:"failed_cells,omitempty"`
}

// computeSweep runs one sweep exactly the way cmd/mkfigures does — Prewarm
// the needed cells on the suite's pool (progress streamed into the job's
// events), tolerate per-cell failures, render in canonical order — and
// returns the canonical result JSON. The report field is RenderSections'
// output plus the trailing newline Fprintln adds, so it is byte-identical to
// mkfigures stdout.
//
// cacheable is false when any cell failed: the degraded report is still a
// valid answer for the submitting client, but memoizing it would serve an
// incomplete sweep forever even after a restart with a bigger
// timeout/retry budget, so the result store drops it and a resubmission
// recomputes.
func computeSweep(ctx context.Context, j *Job, p sweepPlan) (payload []byte, cacheable bool, err error) {
	suite := experiments.NewSuite(p.cfg)
	start := time.Now()
	keys := suite.KeysFor(p.want)
	var cellErrs *experiments.CellErrors
	if err := suite.Prewarm(ctx, keys, j.progress); err != nil {
		if !errors.As(err, &cellErrs) {
			return nil, false, err
		}
	}
	text, err := suite.RenderSections(ctx, p.want)
	if err != nil {
		return nil, false, err
	}
	result := SweepResult{Report: text + "\n", Bench: suite.Bench(time.Since(start))}
	if p.metrics {
		cells, err := suite.Observability(ctx, nil)
		if err != nil {
			return nil, false, err
		}
		cfg := suite.Config()
		result.Metrics = runner.NewMetricsReport(cfg.Scale, cfg.Seed, experiments.MetricsCells(cells))
		if cellErrs != nil {
			result.Metrics.SetErrors(cellErrs.Failures())
		}
	}
	if cellErrs != nil {
		result.FailedCells = cellErrs.Failures()
	}
	payload, err = json.Marshal(result)
	return payload, cellErrs == nil, err
}

// RunResult is the payload of a completed run job.
type RunResult struct {
	Metrics *busprefetch.Metrics `json:"metrics"`
}

// runKey is the run's content-addressed result-store key: the build revision
// plus the spec's canonical string (which covers every result-determining
// field).
func runKey(spec busprefetch.RunSpec) (string, error) {
	s, err := spec.SpecString()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("busprefetch-run/v3|build=%s|%s", buildinfo.Revision(), s), nil
}

// computeRun executes one RunSpec and returns the canonical result JSON.
// A successful run is always cacheable: it is the complete answer for its
// spec at any scheduling budget.
func computeRun(ctx context.Context, spec busprefetch.RunSpec) (payload []byte, cacheable bool, err error) {
	m, err := busprefetch.RunContext(ctx, spec)
	if err != nil {
		return nil, false, err
	}
	payload, err = json.Marshal(RunResult{Metrics: m})
	return payload, true, err
}
