package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"busprefetch/internal/experiments"
)

// goldenPath is the full scale-1 report for seed 1, relative to the
// repository root.
const goldenPath = "internal/experiments/testdata/golden_scale1_full.txt"

// pinnedReport is the SHA-256 of the full report for seed 1 at the suite's
// default scale. A change that moves it changed a simulated result.
const pinnedReport = "3f090137d6a78f4504df19665785d10468e64475fca0c8969917ef11f66c4838"

// suiteSetups is how many suite constructions are timed before the timed
// phase, and again after it.
const suiteSetups = 100

func all(string) bool { return true }

// newSuite builds the suite as cmd/mkfigures does, with one worker per
// GOMAXPROCS unless --workers says fewer.
func (r *run) newSuite() (*experiments.Suite, []experiments.Key) {
	cfg := experiments.DefaultConfig()
	cfg.Scale, cfg.Seed, cfg.Parallelism = r.scale, r.seed, r.workers
	s := experiments.NewSuite(cfg)
	return s, s.KeysFor(all)
}

// runSuite renders the full mkfigures report (every section), one fresh
// suite per report so nothing is memoized across reports. The first report
// always runs; another starts only if it should end within --seconds.
func runSuite(ctx context.Context, r *run) error {
	if r.workers == 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	// At seed 1 a report is checked against the golden file at scale 1 and
	// against the pinned digest at the default scale.
	var golden, wantDigest string
	switch {
	case r.seed == 1 && r.scale == 1:
		data, err := os.ReadFile(filepath.Join(r.root, goldenPath))
		if err != nil {
			return err
		}
		golden = string(data)
	case r.seed == 1 && r.scale == defaultScale["suite"]:
		wantDigest = pinnedReport
	}
	// Suite construction is cheap, so setup_s is the median of many: one
	// before each report, and suiteSetups before and after the timed phase.
	setUp := func() (*experiments.Suite, []experiments.Key) {
		start := time.Now()
		s, keys := r.newSuite()
		r.setups = append(r.setups, time.Since(start))
		return s, keys
	}
	for i := 0; i < suiteSetups; i++ {
		setUp()
	}

	var first string
	begin := time.Now()
	for n := 0; ; n++ {
		s, keys := setUp()
		start := time.Now()
		var report string
		var err error
		if r.rec == nil {
			report, err = renderReport(ctx, s, keys)
		} else {
			report, err = tracedReport(ctx, r, s, keys, fmt.Sprintf("report-%d", n+1))
		}
		lat := time.Since(start)
		ok := err == nil
		switch {
		case err != nil:
			r.checkFailed("report %d: %v", n+1, err)
		case golden != "" && report+"\n" != golden:
			ok = false
			r.checkFailed("report %d differs from %s at line %d", n+1, goldenPath, firstDiff(report+"\n", golden))
		case wantDigest != "" && digest([][]byte{[]byte(report)}) != wantDigest:
			ok = false
			r.checkFailed("report %d digest %s, want %s", n+1, digest([][]byte{[]byte(report)}), wantDigest)
		case first != "" && report != first:
			ok = false
			r.checkFailed("report %d differs from report 1 at line %d", n+1, firstDiff(report, first))
		case n == 0:
			first = report
			fmt.Fprintf(r.log, "suite: report 1 has %d lines (%d cells prewarmed, %d workers), digest %s\n",
				strings.Count(report, "\n")+1, len(keys), s.Workers(), digest([][]byte{[]byte(report)}))
		}
		r.record(op{class: "suite", lat: lat, ok: ok})
		if elapsed := time.Since(begin); elapsed+lat > r.seconds {
			break
		}
	}
	for i := 0; i < suiteSetups; i++ {
		setUp()
	}
	return nil
}

// renderReport is exactly what mkfigures does for the full report.
func renderReport(ctx context.Context, s *experiments.Suite, keys []experiments.Key) (string, error) {
	if err := s.Prewarm(ctx, keys, nil); err != nil {
		return "", err
	}
	return s.RenderSections(ctx, all)
}

// tracedReport prewarms, then renders each section alone in canonical
// order, recording one span per step; the sections joined as
// RenderSections joins them are the full report. It then reports the
// experiments and runner per-layer metrics.
func tracedReport(ctx context.Context, r *run, s *experiments.Suite, keys []experiments.Key, id string) (string, error) {
	start := time.Now()
	root := r.rec.begin("suite.report", id, -1)
	p := r.rec.begin("experiments.prewarm", id, root)
	err := s.Prewarm(ctx, keys, nil)
	prewarm := r.rec.end(p)
	var cellErrs *experiments.CellErrors
	if err != nil && !errors.As(err, &cellErrs) {
		r.rec.end(root)
		return "", err
	}
	var sections []string
	var render time.Duration
	for _, name := range experiments.SectionNames() {
		sp := r.rec.begin("experiments.section."+name, id, root)
		body, rerr := s.RenderSections(ctx, func(n string) bool { return n == name })
		d := r.rec.end(sp)
		if rerr != nil {
			r.rec.end(root)
			return "", rerr
		}
		render += d
		sections = append(sections, body)
		r.set("experiments.section."+name+"_s", d.Seconds(), "s")
	}
	r.rec.end(root)
	r.set("experiments.prewarm_s", prewarm.Seconds(), "s")
	r.set("experiments.render_s", render.Seconds(), "s")

	b := s.Bench(time.Since(start))
	cells := make([]time.Duration, len(b.Cells))
	for i, c := range b.Cells {
		cells[i] = time.Duration(c.Millis * float64(time.Millisecond))
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	r.set("runner.pool_tasks", float64(len(b.Cells)), "count")
	r.set("runner.pool_busy_ratio", b.CellMillisTotal/(b.TotalMillis*float64(b.Workers)), "ratio")
	r.set("runner.cell_p50_ms", ms(percentile(cells, 50)), "ms")
	r.set("runner.cell_p90_ms", ms(percentile(cells, 90)), "ms")
	r.set("runner.tracecache_hits", float64(b.TraceCacheHits), "count")
	r.set("runner.tracecache_misses", float64(b.TraceCacheMisses), "count")
	if cellErrs != nil {
		return "", cellErrs
	}
	return strings.Join(sections, "\n"), nil
}

// firstDiff returns the first line number at which a and b differ.
func firstDiff(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
