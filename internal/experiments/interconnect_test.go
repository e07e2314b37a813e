package experiments

import (
	"context"
	"strings"
	"testing"

	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
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
	keys := s.interconnectKeys([]int{8})
	res, err := s.results(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(icRungs) * 2; len(keys) != want {
		t.Fatalf("got %d cells, want %d", len(keys), want)
	}
	// Canonical order: rung-major over icRungs × {NP, PREF}.
	for i, k := range keys {
		if k.Fabric != icRungs[i/2].cfg || k.Strategy != [2]prefetch.Strategy{prefetch.NP, prefetch.PREF}[i%2] {
			t.Errorf("cell %d is %v, out of canonical order", i, k)
		}
	}
	links := map[string]int{}
	for i, k := range keys {
		r, label := res[i], icRungs[i/2].label+"/"+k.Strategy.String()
		if r.Cycles == 0 {
			t.Fatalf("%s: missing cycle count", label)
		}
		if r.Bus.TotalOps() == 0 {
			t.Errorf("%s: fabric carried no transactions", label)
		}
		if got := len(r.Links); k.Fabric.Kind == interconnect.SingleBus && got != 0 {
			t.Errorf("%s: single bus reported %d per-link stats, want none", label, got)
		}
		if len(r.Links) > 0 {
			var busy uint64
			for _, l := range r.Links {
				busy += l.BusyCycles
			}
			if busy != r.Bus.BusyCycles {
				t.Errorf("%s: per-link busy cycles sum to %d, aggregate %d", label, busy, r.Bus.BusyCycles)
			}
		}
		if u := r.BusUtilization(); u <= 0 || u > 1 {
			t.Errorf("%s: utilization %f out of range", label, u)
		}
		links[icRungs[i/2].label] = len(r.Links)
	}
	// The multi-link fabrics must report their per-link split.
	if links["dual"] != 2 || links["quad"] != 4 {
		t.Errorf("multibus link stats: dual=%d quad=%d, want 2 and 4", links["dual"], links["quad"])
	}
	if links["directory"] < 2 {
		t.Errorf("directory reported %d links, want one per processor", links["directory"])
	}
}

// TestInterconnectSuiteConfigKeyed: a suite-level fabric override must not
// alias grid checkpoints across topologies — the grid key carries the suite
// fabric and the checkpoint key spells it out.
func TestInterconnectSuiteConfigKeyed(t *testing.T) {
	base := NewSuite(Config{Scale: 0.1, Seed: 1, Transfers: []int{8}})
	multi := NewSuite(Config{Scale: 0.1, Seed: 1, Transfers: []int{8},
		Interconnect: icRungs[2].cfg})
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
	got, err := s.interconnect(context.Background(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_interconnect_t8.txt", got)
}
