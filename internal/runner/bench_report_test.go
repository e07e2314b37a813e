package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestBenchReportRoundTrip(t *testing.T) {
	c := NewTraceCache()
	_, _, _ = c.GetSource(context.Background(), testKey("water", false), generate("water", false))
	_, _, _ = c.GetSource(context.Background(), testKey("water", false), generate("water", false))
	timings := []Timing{
		{Label: "b-cell", Duration: 30 * time.Millisecond},
		{Label: "a-cell", Duration: 20 * time.Millisecond},
	}
	r := NewBenchReport(0.1, 1, 8, 4, timings, 40*time.Millisecond, c)
	if r.Schema != BenchSchema {
		t.Errorf("schema = %q", r.Schema)
	}
	if len(r.Cells) != 2 || r.Cells[0].Cell != "a-cell" {
		t.Errorf("cells not sorted by label: %+v", r.Cells)
	}
	if r.CellMillisTotal != 50 {
		t.Errorf("CellMillisTotal = %v, want 50", r.CellMillisTotal)
	}
	if r.TotalMillis != 40 {
		t.Errorf("TotalMillis = %v, want 40", r.TotalMillis)
	}
	if r.TraceCacheHits != 1 || r.TraceCacheMisses != 1 || r.TraceCacheHitRate != 0.5 {
		t.Errorf("trace cache stats = %d/%d/%v", r.TraceCacheHits, r.TraceCacheMisses, r.TraceCacheHitRate)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got BenchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || got.Workers != 8 || got.GOMAXPROCS != 4 || len(got.Cells) != 2 || got.Scale != 0.1 {
		t.Errorf("round-tripped report = %+v", got)
	}
}

func TestBenchReportWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_suite.json")
	r := NewBenchReport(1, 1, 1, 1, nil, time.Second, nil)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "BENCH_suite.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory contents = %v, want just BENCH_suite.json", names)
	}
}
