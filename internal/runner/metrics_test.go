package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"busprefetch/internal/bus"
	"busprefetch/internal/obs"
)

func sampleSummary() *obs.Summary {
	r := obs.New(2, obs.Options{})
	r.PrefetchIssued(0, 0x1000, 10)
	r.PrefetchGranted(0, 0x1000, 105)
	r.PrefetchFilled(0, 0x1000, 113)
	r.PrefetchFirstUse(0, 0x1000, 150)
	r.PrefetchIssued(1, 0x2000, 20)
	r.BusOccupied(0, 105, 8, bus.OpFill, bus.Prefetch, 0)
	r.Wait(0, obs.PhaseMemWait, 10, 113)
	r.Finish(500)
	return r.Summary()
}

func TestMetricsReportRoundTrip(t *testing.T) {
	cells := []CellMetrics{
		{Cell: "mp3d/PREF/8", Summary: sampleSummary()},
		{Cell: "barnes/EXCL/8", Summary: sampleSummary()},
	}
	r := NewMetricsReport(1.0, 42, cells)
	if r.Cells[0].Cell != "barnes/EXCL/8" {
		t.Fatalf("cells not sorted: %v, %v", r.Cells[0].Cell, r.Cells[1].Cell)
	}

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMetricsReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != MetricsSchema || back.Scale != 1.0 || back.Seed != 42 {
		t.Fatalf("round trip lost header: %+v", back)
	}
	if len(back.Cells) != 2 || back.Cells[1].Cell != "mp3d/PREF/8" {
		t.Fatalf("round trip lost cells: %+v", back.Cells)
	}
	s := back.Cells[1].Summary
	if s == nil || s.Lifetimes["useful"] != 1 || s.Lifetimes["unused"] != 1 {
		t.Fatalf("round trip lost summary: %+v", s)
	}
	if s.IssueToFill.Samples != 1 || s.BusOps["fill/prefetch"].Grants != 1 {
		t.Fatalf("round trip lost histograms: %+v", s)
	}
}

// TestMetricsReportDeterministic pins the fixed-bucket-edges rationale: two
// identical recordings serialize to identical bytes.
func TestMetricsReportDeterministic(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		r := NewMetricsReport(0.5, 7, []CellMetrics{{Cell: "mp3d/PREF/8", Summary: sampleSummary()}})
		path := filepath.Join(dir, "m.json")
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("identical recordings serialized differently")
	}
}

func TestMetricsReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"busprefetch-bench/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMetricsReport(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if err := os.WriteFile(path, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMetricsReport(path); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := ReadMetricsReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
