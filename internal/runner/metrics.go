package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"busprefetch/internal/obs"
)

// MetricsSchema versions the observability-metrics report format.
const MetricsSchema = "busprefetch-metrics/v1"

// CellMetrics is one suite cell's observability summary: the prefetch
// lifetime classes, latency histograms (fixed bucket edges, so the JSON is
// deterministic for a deterministic run) and bus/phase aggregates recorded
// for that cell.
type CellMetrics struct {
	// Cell labels the cell, "workload/strategy/transfer" (for example
	// "mp3d/PREF/8").
	Cell    string       `json:"cell"`
	Summary *obs.Summary `json:"summary"`
}

// CellFailure is one failed sweep cell in a metrics report: which cell, what
// happened, and whether the error was terminal (a fact about the cell — an
// invariant violation, a stall, a panic) or retryable (the cell ran out of
// its timeout).
type CellFailure struct {
	Cell string `json:"cell"`
	Err  string `json:"err"`
	// Class is "terminal" or "retryable" (see runner.Classify).
	Class string `json:"class"`
}

// MetricsReport is the per-cell observability companion to BenchReport,
// written by mkfigures -metrics-out. Where the
// bench report answers "how long did each cell take to simulate", this one
// answers "what did the machine do during each cell" — lifetime-class
// shares, issue→grant/issue→fill/fill→use distributions, bus occupancy by
// op, and processor phase totals.
type MetricsReport struct {
	Schema string `json:"schema"`
	// Scale and Seed identify the suite configuration measured.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Cells is sorted by label so reports diff cleanly.
	Cells []CellMetrics `json:"cells"`
	// Errors lists the sweep cells that failed (empty on a clean run),
	// sorted by label. A failed cell has no metrics entry; this is where its
	// story lives.
	Errors []CellFailure `json:"errors,omitempty"`
}

// SetErrors records the failed cells, sorted by label.
func (r *MetricsReport) SetErrors(failures []CellFailure) {
	r.Errors = append([]CellFailure(nil), failures...)
	sort.Slice(r.Errors, func(i, j int) bool { return r.Errors[i].Cell < r.Errors[j].Cell })
}

// NewMetricsReport assembles a report; cells are sorted by label.
func NewMetricsReport(scale float64, seed int64, cells []CellMetrics) *MetricsReport {
	r := &MetricsReport{Schema: MetricsSchema, Scale: scale, Seed: seed}
	r.Cells = append(r.Cells, cells...)
	sort.Slice(r.Cells, func(i, j int) bool { return r.Cells[i].Cell < r.Cells[j].Cell })
	return r
}

// WriteFile writes the report as indented JSON, atomically, mirroring
// BenchReport.WriteFile: the file lands complete or not at all.
func (r *MetricsReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding metrics report: %w", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("runner: writing metrics report: %w", err)
	}
	return nil
}

// ReadMetricsReport loads a report written by WriteFile and rejects unknown
// schemas.
func ReadMetricsReport(path string) (*MetricsReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r MetricsReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("runner: parsing metrics report %s: %w", path, err)
	}
	if r.Schema != MetricsSchema {
		return nil, fmt.Errorf("runner: metrics report %s has schema %q, want %q", path, r.Schema, MetricsSchema)
	}
	return &r, nil
}
