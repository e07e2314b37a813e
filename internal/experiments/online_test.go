package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
)

// onlineRender runs the online-vs-oracle sweep on a reduced suite at the
// given parallelism and returns the rendered section.
func onlineRender(t *testing.T, jobs int) string {
	t.Helper()
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}, Parallelism: jobs})
	got, err := s.RenderSections(context.Background(), func(name string) bool { return name == "online" })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestOnlineDeterministicAcrossWorkerCounts: the engines' training is
// per-processor state inside a deterministic event loop, so the rendered
// sweep must be byte-identical at -jobs 1 and -jobs 8.
func TestOnlineDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := onlineRender(t, 1)
	parallel := onlineRender(t, 8)
	if serial != parallel {
		t.Errorf("online section differs across worker counts:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Online engines vs oracle annotation") {
		t.Fatalf("section missing title:\n%s", serial)
	}
}

func TestOnlineCells(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: []int{8}})
	cells, err := s.Online(context.Background(), nil, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Figure3Workloads()) * len(prefetch.Kinds()); len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	// Canonical order: workload-major over Figure3Workloads × Kinds.
	if cells[0].Label() != "topopt/oracle/8" || cells[len(cells)-1].Label() != "mp3d/pointer/8" {
		t.Errorf("cells out of canonical order: first %s, last %s", cells[0].Label(), cells[len(cells)-1].Label())
	}
	for _, c := range cells {
		if c.Summary == nil {
			t.Fatalf("%s: nil summary", c.Label())
		}
		if c.NPCycles == 0 || c.Cycles == 0 {
			t.Errorf("%s: missing cycle counts (cycles=%d, NP=%d)", c.Label(), c.Cycles, c.NPCycles)
		}
		if c.Engine.Online() {
			if c.Stats == nil {
				t.Fatalf("%s: engine cell carries no engine stats", c.Label())
			}
			cnt := &c.Counters
			if got := cnt.OnlineIssued + cnt.OnlineFiltered + cnt.OnlineDropped; got != cnt.OnlineEmitted {
				t.Errorf("%s: online accounting leak: issued+filtered+dropped=%d, emitted=%d",
					c.Label(), got, cnt.OnlineEmitted)
			}
			if uint64(c.Summary.LifetimesTotal()) != cnt.OnlineIssued {
				t.Errorf("%s: obs recorded %d prefetch lifetimes, simulator issued %d",
					c.Label(), c.Summary.LifetimesTotal(), cnt.OnlineIssued)
			}
		} else {
			if c.Stats != nil {
				t.Errorf("%s: oracle cell carries engine stats", c.Label())
			}
			if c.Summary.LifetimesTotal() == 0 {
				t.Errorf("%s: oracle run recorded no prefetch lifetimes", c.Label())
			}
			if c.Counters.OnlineEmitted != 0 {
				t.Errorf("%s: oracle run counted %d online emissions", c.Label(), c.Counters.OnlineEmitted)
			}
		}
	}
}

// TestOnlineOracleMatchesFigure2UnderFabric: the online oracle rows run on
// the grid's machine, fabric included, so on a quad-bus suite each oracle
// row's relative time must equal Figure 2's PREF ratio at that transfer —
// the row and its NP baseline are the same two simulations Figure 2 divides.
func TestOnlineOracleMatchesFigure2UnderFabric(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: OnlineTransfers(),
		Interconnect: interconnect.Config{Kind: interconnect.MultiBus, Links: 4}})
	rows, err := s.Online(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, r := range fig2 {
		if r.Strategy == prefetch.PREF && r.Err == "" {
			want[fmt.Sprintf("%s/%d", r.Workload, r.Transfer)] = r.RelTime
		}
	}
	checked := 0
	for _, r := range rows {
		if r.Engine != prefetch.Oracle {
			continue
		}
		w, ok := want[fmt.Sprintf("%s/%d", r.Workload, r.Transfer)]
		if !ok {
			t.Fatalf("%s: Figure 2 has no PREF point", r.Label())
		}
		if got := r.RelativeTime(); got != w {
			t.Errorf("%s: online oracle relative time %.3f, Figure 2 PREF %.3f", r.Label(), got, w)
		}
		checked++
	}
	if want := len(Figure3Workloads()) * len(OnlineTransfers()); checked != want {
		t.Errorf("checked %d oracle rows, want %d", checked, want)
	}
}

// TestOnlineCheckpointResume: online cells resume from the store too — the
// second sweep restores every recorded cell, recomputes nothing, and renders
// byte-identical output.
func TestOnlineCheckpointResume(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store1, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite(resumeConfig(store1))
	cells1, err := s1.Online(ctx, []string{"mp3d"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	// The sweep checkpoints its own cells plus the NP grid baseline.
	if puts := store1.Stats().Puts; puts != uint64(len(cells1))+1 {
		t.Fatalf("first run checkpointed %d cells, want %d online + 1 NP baseline", puts, len(cells1))
	}

	store2, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite(resumeConfig(store2))
	cells2, err := s2.Online(ctx, []string{"mp3d"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	stats := store2.Stats()
	if stats.Hits != uint64(len(cells1))+1 || stats.Puts != 0 {
		t.Errorf("resume hits=%d puts=%d, want all %d cells restored and none recomputed",
			stats.Hits, stats.Puts, len(cells1)+1)
	}
	if got, want := RenderOnline(cells2), RenderOnline(cells1); got != want {
		t.Error("restored online cells render differently")
	}
}

// TestGoldenOnlineT8 pins the scale-1 online-vs-oracle sweep at the T=8
// point (the T=32 half is covered by the full golden), the way the other
// golden slices pin the paper tables.
func TestGoldenOnlineT8(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 online slice in -short mode")
	}
	s := NewSuite(Config{Scale: 1, Seed: 1})
	cells, err := s.Online(context.Background(), nil, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_online_t8.txt", RenderOnline(cells))
}
