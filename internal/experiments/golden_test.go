package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-result regression harness: the scale-1, seed-1 suite — the
// configuration behind EXPERIMENTS.md, whose full report is
// testdata/golden_scale1_full.txt — must
// reproduce the committed goldens byte for byte. Any change to trace
// generation, annotation, the simulator, or the renderers that shifts a
// single digit fails here, which is the point: paper-fidelity numbers only
// change deliberately, together with a golden update.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGolden -update
//	BUSPREFETCH_GOLDEN_FULL=1 go test ./internal/experiments -run TestGolden -update -timeout 30m
var update = flag.Bool("update", false, "rewrite golden files from the current output")

// goldenCompare asserts got matches the named golden file (or rewrites it
// under -update). got is compared with a trailing newline so the files are
// exactly what `mkfigures` prints to stdout.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	full := got + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(full))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if full == string(want) {
		return
	}
	// Pinpoint the first divergent line so a failure reads as a diff, not a
	// wall of text.
	gotLines, wantLines := strings.Split(full, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output diverges from %s at line %d:\n  golden: %q\n  got:    %q",
				path, i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("output length differs from %s: %d lines vs %d golden lines",
		path, len(gotLines), len(wantLines))
}

// t8Sections are the report sections that need only the 8-cycle transfer
// column of the grid (KeysFor lists 25 cells instead of 155), cheap enough
// to assert on every full test run.
func t8Sections(name string) bool {
	switch name {
	case "table1", "fig1", "fig3", "table3":
		return true
	}
	return false
}

// TestGoldenScale1T8Slice asserts the paper-fidelity (scale 1, seed 1)
// results for every section that reads the T=8 grid: Table 1, Figure 1,
// Figure 3 and Table 3.
func TestGoldenScale1T8Slice(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 suite slice in -short mode")
	}
	s := NewSuite(Config{Scale: 1, Seed: 1})
	if err := s.Prewarm(context.Background(), s.KeysFor(t8Sections), nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.RenderSections(context.Background(), t8Sections)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_scale1_t8.txt", got)
}

// TestGoldenProtocolT8Slice asserts the three-way coherence-protocol
// ablation (Illinois / MSI / Dragon under NP, PREF, EXCL on mp3d) at the
// paper-fidelity scale, restricted to the 8-cycle transfer so it stays cheap
// enough for every full test run. The 32-cycle half of the default sweep is
// covered by the full golden.
func TestGoldenProtocolT8Slice(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 protocol ablation in -short mode")
	}
	s := NewSuite(Config{Scale: 1, Seed: 1})
	got, err := s.ablation(context.Background(), protocolSweep("mp3d", 8))
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_protocol_t8.txt", got)
}

// TestGoldenScale1Full asserts the entire default report — every table,
// figure and ablation at scale 1 — against the committed golden. The full
// grid takes minutes of CPU, so the test only runs when asked for:
//
//	BUSPREFETCH_GOLDEN_FULL=1 go test ./internal/experiments -run TestGoldenScale1Full -timeout 30m
func TestGoldenScale1Full(t *testing.T) {
	if os.Getenv("BUSPREFETCH_GOLDEN_FULL") == "" {
		t.Skip("set BUSPREFETCH_GOLDEN_FULL=1 to run the full scale-1 golden (several CPU-minutes)")
	}
	s := NewSuite(Config{Scale: 1, Seed: 1})
	all := func(string) bool { return true }
	if err := s.Prewarm(context.Background(), s.KeysFor(all), nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.RenderSections(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_scale1_full.txt", got)
}
