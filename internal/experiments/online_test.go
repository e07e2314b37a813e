package experiments

import (
	"context"
	"strings"
	"testing"

	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
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
	keys := s.onlineKeys(Figure3Workloads(), []int{8})
	res, err := s.results(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	n := len(keys) / 2
	if want := len(Figure3Workloads()) * len(prefetch.Kinds()); n != want {
		t.Fatalf("got %d cells, want %d", n, want)
	}
	// Canonical order: workload-major over Figure3Workloads × Kinds.
	if first, last := keys[0].String(), keys[n-1].String(); first != "topopt/PREF/T=8" || last != "mp3d/PREF/T=8 pf=pointer" {
		t.Errorf("cells out of canonical order: first %s, last %s", first, last)
	}
	for i, k := range keys[:n] {
		r, np := res[i], keys[n+i]
		if np.Workload != k.Workload || np.Strategy != prefetch.NP || np.Transfer != k.Transfer || np.Prefetcher != prefetch.Oracle {
			t.Errorf("%v: NP baseline %v", k, np)
		}
		if r.Obs == nil {
			t.Fatalf("%v: nil summary", k)
		}
		if res[n+i].Cycles == 0 || r.Cycles == 0 {
			t.Errorf("%v: missing cycle counts (cycles=%d, NP=%d)", k, r.Cycles, res[n+i].Cycles)
		}
		if k.Prefetcher.Online() {
			if r.Online == nil {
				t.Fatalf("%v: engine cell carries no engine stats", k)
			}
			cnt := &r.Counters
			if got := cnt.OnlineIssued + cnt.OnlineFiltered + cnt.OnlineDropped; got != cnt.OnlineEmitted {
				t.Errorf("%v: online accounting leak: issued+filtered+dropped=%d, emitted=%d", k, got, cnt.OnlineEmitted)
			}
			if r.Obs.LifetimesTotal() != cnt.OnlineIssued {
				t.Errorf("%v: obs recorded %d prefetch lifetimes, simulator issued %d", k, r.Obs.LifetimesTotal(), cnt.OnlineIssued)
			}
		} else {
			if r.Online != nil {
				t.Errorf("%v: oracle cell carries engine stats", k)
			}
			if r.Obs.LifetimesTotal() == 0 {
				t.Errorf("%v: oracle run recorded no prefetch lifetimes", k)
			}
			if r.Counters.OnlineEmitted != 0 {
				t.Errorf("%v: oracle run counted %d online emissions", k, r.Counters.OnlineEmitted)
			}
		}
	}
}

// TestOnlineOracleMatchesFigure2UnderFabric: the online oracle rows run on
// the grid's machine, fabric included, so on a quad-bus suite each oracle
// row and its NP baseline must be the very two simulations Figure 2 divides
// at that transfer — the same memoized results, so the row's relative time
// is Figure 2's PREF ratio exactly.
func TestOnlineOracleMatchesFigure2UnderFabric(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Seed: 1, Transfers: onlineTransfers,
		Interconnect: interconnect.Config{Kind: interconnect.MultiBus, Links: 4}})
	keys := s.onlineKeys(Figure3Workloads(), onlineTransfers)
	res, err := s.results(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	n, checked := len(keys)/2, 0
	for i, k := range keys[:n] {
		if k.Prefetcher != prefetch.Oracle {
			continue
		}
		np, err := s.grid(Key{Workload: k.Workload, Strategy: prefetch.NP, Transfer: k.Transfer})
		if err != nil {
			t.Fatal(err)
		}
		pref, err := s.grid(Key{Workload: k.Workload, Strategy: prefetch.PREF, Transfer: k.Transfer})
		if err != nil {
			t.Fatal(err)
		}
		if res[i] != pref || res[n+i] != np {
			t.Errorf("%v: online oracle row (%d cycles, NP %d) is not Figure 2's PREF/NP pair (%d cycles, NP %d)",
				k, res[i].Cycles, res[n+i].Cycles, pref.Cycles, np.Cycles)
		}
		checked++
	}
	if want := len(Figure3Workloads()) * len(onlineTransfers); checked != want {
		t.Errorf("checked %d oracle rows, want %d", checked, want)
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
	got, err := s.online(context.Background(), Figure3Workloads(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_online_t8.txt", got)
}
