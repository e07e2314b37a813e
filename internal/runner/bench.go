package runner

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// BenchSchema versions the benchmark report format.
const BenchSchema = "busprefetch-bench/v1"

// CellTime is one task's wall-clock cost in a benchmark report.
type CellTime struct {
	Cell   string  `json:"cell"`
	Millis float64 `json:"millis"`
}

// BenchReport records one suite run's performance trajectory: what ran, how
// wide, how long, and how well the trace cache deduplicated generation work.
// mkfigures -bench-out writes it and perfbench reads its pool and
// trace-cache counters; comparing commits is perfbench's job, in paired
// runs on one host.
type BenchReport struct {
	Schema string `json:"schema"`
	// Scale and Seed identify the suite configuration measured.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Workers is the pool bound the run used; GOMAXPROCS is the hardware
	// parallelism actually available, so Workers > GOMAXPROCS means the
	// extra workers only overlapped, not parallelized.
	Workers    int `json:"workers"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Cells is every pool-executed task with its wall-clock cost, sorted by
	// label so reports diff cleanly.
	Cells []CellTime `json:"cells"`
	// CellMillisTotal sums the per-cell costs (CPU-ish time); TotalMillis
	// is the end-to-end wall clock the caller measured. Their ratio is the
	// achieved parallel speedup.
	CellMillisTotal float64 `json:"cell_millis_total"`
	TotalMillis     float64 `json:"total_millis"`
	// Trace-cache effectiveness: Misses is the number of traces actually
	// generated, Hits the number of generations avoided.
	TraceCacheHits    uint64  `json:"trace_cache_hits"`
	TraceCacheMisses  uint64  `json:"trace_cache_misses"`
	TraceCacheHitRate float64 `json:"trace_cache_hit_rate"`
}

// NewBenchReport assembles a report from pool timings and trace-cache stats.
// total is the end-to-end wall clock of the run being recorded.
func NewBenchReport(scale float64, seed int64, workers int, gomaxprocs int,
	timings []Timing, total time.Duration, traces *TraceCache) *BenchReport {
	r := &BenchReport{
		Schema:      BenchSchema,
		Scale:       scale,
		Seed:        seed,
		Workers:     workers,
		GOMAXPROCS:  gomaxprocs,
		TotalMillis: float64(total) / float64(time.Millisecond),
	}
	for _, t := range timings {
		ms := float64(t.Duration) / float64(time.Millisecond)
		r.Cells = append(r.Cells, CellTime{Cell: t.Label, Millis: ms})
		r.CellMillisTotal += ms
	}
	sort.Slice(r.Cells, func(i, j int) bool { return r.Cells[i].Cell < r.Cells[j].Cell })
	if traces != nil {
		r.TraceCacheHits, r.TraceCacheMisses = traces.Stats()
		r.TraceCacheHitRate = traces.HitRate()
	}
	return r
}

// WriteFile writes the report as indented JSON, atomically: the report lands
// complete or not at all, never as a torn file a comparison script would
// misparse.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding bench report: %w", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("runner: writing bench report: %w", err)
	}
	return nil
}
