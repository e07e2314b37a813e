package experiments

import (
	"context"
	"strings"
	"testing"

	"busprefetch/internal/runner"
)

func ablSuite() *Suite { return NewSuite(Config{Scale: 0.15, Seed: 1}) }

func TestAblationCacheSize(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := ablSuite().AblationCacheSize(context.Background(), "mp3d", []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper: larger caches reduce non-sharing misses, so invalidation
	// misses become MORE dominant.
	if rows[1].InvalShare <= rows[0].InvalShare {
		t.Errorf("invalidation share fell with cache size: %.2f -> %.2f",
			rows[0].InvalShare, rows[1].InvalShare)
	}
	if rows[1].CPUMR >= rows[0].CPUMR {
		t.Errorf("CPU miss rate rose with cache size: %.4f -> %.4f", rows[0].CPUMR, rows[1].CPUMR)
	}
}

func TestAblationLineSize(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := ablSuite().AblationLineSize(context.Background(), "mp3d", []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: larger block sizes increase false sharing.
	if rows[1].FSMR <= rows[0].FSMR {
		t.Errorf("false sharing fell with line size: %.4f -> %.4f", rows[0].FSMR, rows[1].FSMR)
	}
}

func TestAblationAssociativity(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := ablSuite().AblationAssociativity(context.Background(), "topopt")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	dm := rows[0]
	// Both the victim cache and associativity must cut Topopt's conflict
	// misses (paper §4.3): CPU miss rate strictly below direct-mapped.
	for _, r := range rows[1:] {
		if r.CPUMR >= dm.CPUMR {
			t.Errorf("%s: CPU MR %.4f not below direct-mapped %.4f", r.Label, r.CPUMR, dm.CPUMR)
		}
		if r.RelTime >= 1.0 {
			t.Errorf("%s: no speedup over direct-mapped (%.3f)", r.Label, r.RelTime)
		}
	}
}

func TestAblationProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := ablSuite().AblationProtocol(context.Background(), "mp3d", []int{8})
	if err != nil {
		t.Fatal(err)
	}
	// 3 protocols x 3 strategies at one transfer cost.
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	find := func(label, strat string) AblationRow {
		for _, r := range rows {
			if r.Label == label && r.Strategy.String() == strat {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", label, strat)
		return AblationRow{}
	}
	illinoisNP := find("Illinois/t8", "NP")
	msiNP := find("MSI/t8", "NP")
	dragonNP := find("Dragon/t8", "NP")
	// MSI pays an invalidation bus operation for every first write to a
	// line; Illinois's private-clean state avoids it. Mp3d rereads and
	// rewrites its own (mostly single-owner) particle lines every step, so
	// MSI must demand visibly more of the bus or run longer.
	if msiNP.BusUtil <= illinoisNP.BusUtil && msiNP.RelTime <= illinoisNP.RelTime {
		t.Errorf("MSI (bus %.3f, time %.3f) not costlier than Illinois (bus %.3f, time %.3f)",
			msiNP.BusUtil, msiNP.RelTime, illinoisNP.BusUtil, illinoisNP.RelTime)
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Label, "Dragon") {
			// A write-update protocol never invalidates, so invalidation
			// misses (false sharing included) cannot exist...
			if r.InvalMR != 0 || r.FSMR != 0 {
				t.Errorf("Dragon %s: invalidation misses survive (inval %.4f, fs %.4f)",
					r.Strategy, r.InvalMR, r.FSMR)
			}
			// ...but writes to shared lines pay in update broadcasts.
			if r.UpdMR == 0 {
				t.Errorf("Dragon %s: no update traffic on a sharing workload", r.Strategy)
			}
		} else if r.UpdMR != 0 {
			t.Errorf("%s %s: update traffic under a write-invalidate protocol (%.4f)",
				r.Label, r.Strategy, r.UpdMR)
		}
	}
	// The paper's trade made quantitative: Dragon removes the invalidation
	// misses prefetching cannot cover, but its sustained update broadcasts
	// must cost more total bus occupancy than Illinois pays under NP.
	// occupancy = BusUtil * Cycles, and RelTime is Cycles over the shared
	// baseline, so BusUtil*RelTime compares occupancies directly.
	if d, i := dragonNP.BusUtil*dragonNP.RelTime, illinoisNP.BusUtil*illinoisNP.RelTime; d <= i {
		t.Errorf("Dragon NP bus occupancy (%.3f) does not exceed Illinois (%.3f)", d, i)
	}
}

func TestAblationPrefetchPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := ablSuite().AblationPrefetchPlacement(context.Background(), "mp3d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	np, cachePf, bufPf := rows[0], rows[1], rows[2]
	// Cache prefetching must beat the non-snooping buffer on a workload
	// dominated by shared data — the paper's §3.1 argument.
	if cachePf.RelTime >= np.RelTime {
		t.Errorf("cache prefetching did not help: %.3f", cachePf.RelTime)
	}
	if bufPf.RelTime <= cachePf.RelTime {
		t.Errorf("buffer prefetching (%.3f) beat cache prefetching (%.3f) on shared-heavy mp3d",
			bufPf.RelTime, cachePf.RelTime)
	}
}

// TestAblationCheckpointResume: ablation cells take the same checkpoint path
// as every other cell — a second suite over the same store restores every
// one of them, recomputes none, and renders byte-identical output.
func TestAblationCheckpointResume(t *testing.T) {
	ctx := context.Background()
	ablations := func(name string) bool { return name == "ablations" }
	dir := t.TempDir()
	store1, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite(resumeConfig(store1))
	out1, err := s1.RenderSections(ctx, ablations)
	if err != nil {
		t.Fatal(err)
	}
	// The sweeps share some cells (every default-geometry mp3d/NP row is
	// one cell), and each distinct cell is checkpointed once.
	distinct := map[Key]bool{}
	for _, sw := range reportSweeps {
		for _, k := range sw.keys {
			distinct[k.canonical()] = true
		}
	}
	if puts := store1.Stats().Puts; puts != uint64(len(distinct)) {
		t.Fatalf("first run checkpointed %d cells, want %d", puts, len(distinct))
	}

	store2, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite(resumeConfig(store2))
	out2, err := s2.RenderSections(ctx, ablations)
	if err != nil {
		t.Fatal(err)
	}
	if stats := store2.Stats(); stats.Hits != uint64(len(distinct)) || stats.Puts != 0 {
		t.Errorf("resume hits=%d puts=%d, want all %d cells restored and none recomputed",
			stats.Hits, stats.Puts, len(distinct))
	}
	if out2 != out1 {
		t.Errorf("restored ablations render differently:\n--- first ---\n%s\n--- restored ---\n%s", out1, out2)
	}
}

func TestRenderAblation(t *testing.T) {
	rows := []AblationRow{{Label: "x", RelTime: 1, CPUMR: 0.01}}
	out := RenderAblation("Ablation: test", rows)
	if !strings.Contains(out, "Ablation: test") || !strings.Contains(out, "0.0100") {
		t.Errorf("render:\n%s", out)
	}
}

func TestAblationDistance(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := ablSuite().AblationDistance(context.Background(), "mp3d", []int{25, 100, 800})
	if err != nil {
		t.Fatal(err)
	}
	// rows[0] is NP; distances follow. The paper: stretching the distance
	// until all prefetches complete does not pay off — dist 800 must not
	// beat dist 100 meaningfully.
	d100, d800 := rows[2], rows[3]
	if d800.RelTime < d100.RelTime-0.02 {
		t.Errorf("dist 800 (%.3f) clearly beat dist 100 (%.3f) — the paper's §4.3 result inverted",
			d800.RelTime, d100.RelTime)
	}
	// And every PREF variant should beat NP at this (8-cycle) architecture.
	for _, r := range rows[1:] {
		if r.RelTime >= 1.05 {
			t.Errorf("%s: rel time %.3f far above NP", r.Label, r.RelTime)
		}
	}
}

func TestAblationMemLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := ablSuite().AblationMemLatency(context.Background(), "mp3d", []int{25, 200})
	if err != nil {
		t.Fatal(err)
	}
	// With little latency to hide, prefetching gains collapse: the
	// improvement at latency 25 must be smaller than at latency 200.
	gain25 := 1 - rows[0].RelTime
	gain200 := 1 - rows[1].RelTime
	if gain25 >= gain200 {
		t.Errorf("prefetching gained more at low latency (%.3f) than high (%.3f)", gain25, gain200)
	}
}
