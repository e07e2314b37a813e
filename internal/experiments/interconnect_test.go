package experiments

import (
	"context"
	"strings"
	"testing"

	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
)

// icRender runs the interconnect sweep on a reduced suite at the given
// parallelism and returns the rendered section.
func icRender(t *testing.T, jobs int) string {
	t.Helper()
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}, Parallelism: jobs})
	got, err := s.RenderSections(context.Background(), func(name string) bool { return name == "interconnect" })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestInterconnectDeterministicAcrossWorkerCounts: every fabric is a
// deterministic event loop and the cells reduce in canonical order, so the
// rendered sweep must be byte-identical at -jobs 1 and -jobs 8.
func TestInterconnectDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := icRender(t, 1)
	parallel := icRender(t, 8)
	if serial != parallel {
		t.Errorf("interconnect section differs across worker counts:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Interconnect bandwidth ladder") {
		t.Fatalf("section missing title:\n%s", serial)
	}
	if !strings.Contains(serial, "T=8: prefetching") {
		t.Fatalf("section missing the flip-point finding line:\n%s", serial)
	}
}

func TestInterconnectCells(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}})
	cells, err := s.Interconnect(context.Background(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(InterconnectVariants()) * 2; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	// Canonical order: topology-major over InterconnectVariants × {NP, PREF}.
	if cells[0].Label() != "mp3d/bus/NP/8" || cells[len(cells)-1].Label() != "mp3d/directory/PREF/8" {
		t.Errorf("cells out of canonical order: first %s, last %s", cells[0].Label(), cells[len(cells)-1].Label())
	}
	for _, c := range cells {
		if c.Cycles == 0 {
			t.Fatalf("%s: missing cycle count", c.Label())
		}
		if c.Bus.TotalOps() == 0 {
			t.Errorf("%s: fabric carried no transactions", c.Label())
		}
		if got := len(c.Links); c.Fabric.Kind == interconnect.SingleBus && got != 0 {
			t.Errorf("%s: single bus reported %d per-link stats, want none", c.Label(), got)
		}
		if len(c.Links) > 0 {
			var busy uint64
			for _, l := range c.Links {
				busy += l.BusyCycles
			}
			if busy != c.Bus.BusyCycles {
				t.Errorf("%s: per-link busy cycles sum to %d, aggregate %d", c.Label(), busy, c.Bus.BusyCycles)
			}
		}
		if u := c.Utilization(); u <= 0 || u > 1 {
			t.Errorf("%s: utilization %f out of range", c.Label(), u)
		}
	}
	// The multi-link fabrics must report their per-link split.
	byTopo := map[string]int{}
	for _, c := range cells {
		byTopo[c.Topology] = len(c.Links)
	}
	if byTopo["dual"] != 2 || byTopo["quad"] != 4 {
		t.Errorf("multibus link stats: dual=%d quad=%d, want 2 and 4", byTopo["dual"], byTopo["quad"])
	}
	if byTopo["directory"] < 2 {
		t.Errorf("directory reported %d links, want one per processor", byTopo["directory"])
	}
}

// TestInterconnectCheckpointResume: interconnect cells resume from the store
// too — the second sweep restores every cell, recomputes nothing, and renders
// byte-identical output.
func TestInterconnectCheckpointResume(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store1, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite(resumeConfig(store1))
	cells1, err := s1.Interconnect(ctx, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	// The sweep's NP baselines are in-sweep, so it checkpoints exactly its
	// own cells — no grid entries.
	if puts := store1.Stats().Puts; puts != uint64(len(cells1)) {
		t.Fatalf("first run checkpointed %d cells, want %d", puts, len(cells1))
	}

	store2, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite(resumeConfig(store2))
	cells2, err := s2.Interconnect(ctx, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	stats := store2.Stats()
	if stats.Hits != uint64(len(cells1)) || stats.Puts != 0 {
		t.Errorf("resume hits=%d puts=%d, want all %d cells restored and none recomputed",
			stats.Hits, stats.Puts, len(cells1))
	}
	if got, want := RenderInterconnect(cells2), RenderInterconnect(cells1); got != want {
		t.Error("restored interconnect cells render differently")
	}
}

// TestInterconnectSuiteConfigKeyed: a suite-level fabric override must not
// alias grid checkpoints across topologies — the grid key carries the suite
// fabric and the checkpoint key spells it out.
func TestInterconnectSuiteConfigKeyed(t *testing.T) {
	base := NewSuite(Config{Scale: 0.1, Seed: 1, Transfers: []int{8}})
	multi := NewSuite(Config{Scale: 0.1, Seed: 1, Transfers: []int{8},
		Interconnect: InterconnectVariants()[2].Cfg})
	k := Key{Workload: "mp3d", Strategy: prefetch.NP, Transfer: 8}
	a, b := base.cellKey(base.onSuite(k)), multi.cellKey(multi.onSuite(k))
	if a == b {
		t.Fatalf("grid cell key ignores the suite fabric: %q", a)
	}
	if !strings.Contains(a, "|ic=bus|") && !strings.HasSuffix(a, "|ic=bus") {
		t.Errorf("default key %q does not pin the single bus", a)
	}
	if !strings.Contains(b, "ic=multibus:2") {
		t.Errorf("multibus key %q does not name the fabric", b)
	}
}

// TestGoldenInterconnectT8 pins the scale-1 interconnect ladder at the T=8
// point (the T=32 half is covered by the full golden), the way the other
// golden slices pin the paper tables.
func TestGoldenInterconnectT8(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 interconnect slice in -short mode")
	}
	s := NewSuite(Config{Scale: 1, Seed: 1})
	cells, err := s.Interconnect(context.Background(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_interconnect_t8.txt", RenderInterconnect(cells))
}
