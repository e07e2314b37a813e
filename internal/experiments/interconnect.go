package experiments

import (
	"context"
	"fmt"

	"busprefetch/internal/bus"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
)

// The interconnect section turns the paper's conclusion into a dial. The
// paper shows prefetching barely helps (and at T=32 actively hurts) because
// the single bus, not the miss latency, is the bottleneck — so the natural
// follow-up is: how much interconnect bandwidth does it take before the
// prefetches stop fighting the demand traffic and start winning? The sweep
// re-runs the paper's bus-bound headline workload (mp3d) under NP and PREF
// on a ladder of fabrics in ascending-bandwidth order — the paper's priority
// bus, the same bus under FCFS arbitration, dual and quad address-interleaved
// buses, and a directory/point-to-point endpoint — at the cheap (T=8) and
// saturated (T=32) transfer costs. Each topology carries its own in-sweep NP
// baseline, so the relative time column answers the question directly: the
// first rung of the ladder where PREF's ratio drops below 1 is the bandwidth
// at which prefetching flips from harmful to helpful.

// InterconnectVariant pairs a fabric configuration with its display label.
type InterconnectVariant struct {
	Label string
	Cfg   interconnect.Config
}

// InterconnectVariants lists the swept fabrics in ascending-bandwidth order.
// The order is load-bearing: RenderInterconnect reports the first variant
// whose PREF/NP ratio drops below 1 as the flip point.
func InterconnectVariants() []InterconnectVariant {
	return []InterconnectVariant{
		{"bus", interconnect.Config{}},
		{"bus/fcfs", interconnect.Config{Discipline: bus.FCFS}},
		{"dual", interconnect.Config{Kind: interconnect.MultiBus, Links: 2}},
		{"quad", interconnect.Config{Kind: interconnect.MultiBus, Links: 4}},
		{"directory", interconnect.Config{Kind: interconnect.Directory}},
	}
}

// InterconnectTransfers lists the data-transfer costs the interconnect
// section sweeps: the paper's headline T=8 point and the bus-saturated T=32
// extreme, where the limitation argument is sharpest.
func InterconnectTransfers() []int { return []int{8, 32} }

// interconnectWorkload is the section's fixed workload: mp3d, the paper's
// most bus-bound program and the one where prefetching hurts the most.
const interconnectWorkload = "mp3d"

// InterconnectRow is one row of the interconnect sweep: a (topology,
// strategy, transfer) triple's execution time and fabric occupancy on the
// sweep's fixed workload.
type InterconnectRow struct {
	// Topology is the variant's display label; Fabric is its configuration.
	Topology string
	Fabric   interconnect.Config
	Strategy prefetch.Strategy
	Transfer int
	// Cycles is the row's parallel execution time.
	Cycles uint64
	// Bus aggregates occupancy across the fabric's links; Links holds the
	// per-link split on multi-link fabrics (nil on a single bus).
	Bus   bus.Stats
	Links []bus.Stats
}

// Label returns the row's label, "workload/topology/strategy/transfer".
func (r InterconnectRow) Label() string {
	return fmt.Sprintf("%s/%s/%s/%d", interconnectWorkload, r.Topology, r.Strategy, r.Transfer)
}

// links returns the row's link count (1 on a single bus).
func (r InterconnectRow) links() int {
	if len(r.Links) > 1 {
		return len(r.Links)
	}
	return 1
}

// Utilization returns the mean per-link fraction of cycles the fabric was
// occupied (the multi-link generalization of the paper's bus utilization).
func (r InterconnectRow) Utilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	u := float64(r.Bus.BusyCycles) / (float64(r.Cycles) * float64(r.links()))
	if u > 1 {
		u = 1 // rounding guard: a link can be busy through the final cycle
	}
	return u
}

// interconnectKeys returns the topology sweep — every InterconnectVariants
// fabric under NP and PREF at InterconnectTransfers (or the given transfers)
// on the sweep's fixed workload — in canonical (topology-major, then
// strategy, then transfer) order. The cells run on the suite's machine
// except for the fabric, which each rung sets itself, and the prefetcher,
// held at the oracle so the section isolates the fabric.
func (s *Suite) interconnectKeys(transfers []int) []Key {
	if len(transfers) == 0 {
		transfers = InterconnectTransfers()
	}
	variants, strategies := InterconnectVariants(), [...]prefetch.Strategy{prefetch.NP, prefetch.PREF}
	keys := make([]Key, 0, len(variants)*len(strategies)*len(transfers))
	for _, v := range variants {
		for _, st := range strategies {
			for _, tr := range transfers {
				k := s.onSuite(Key{Workload: interconnectWorkload, Strategy: st, Transfer: tr})
				k.Prefetcher, k.Fabric = prefetch.Oracle, v.Cfg
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// Interconnect runs the topology sweep on the suite's worker pool and
// returns its rows in canonical order. Unlike the grid sections, the NP
// baselines are in-sweep: each topology normalizes PREF against its own NP
// run, so the relative time isolates what prefetching does *given* that
// fabric.
func (s *Suite) Interconnect(ctx context.Context, transfers []int) ([]InterconnectRow, error) {
	keys := s.interconnectKeys(transfers)
	res, err := s.results(ctx, keys)
	if err != nil {
		return nil, err
	}
	variants := InterconnectVariants()
	perVariant := len(keys) / len(variants)
	rows := make([]InterconnectRow, len(keys))
	for i, k := range keys {
		rows[i] = InterconnectRow{Topology: variants[i/perVariant].Label, Fabric: k.Fabric,
			Strategy: k.Strategy, Transfer: k.Transfer, Cycles: res[i].Cycles, Bus: res[i].Bus, Links: res[i].Links}
	}
	return rows, nil
}

// icBaselines indexes the sweep's NP cycles by (topology, transfer).
func icBaselines(cells []InterconnectRow) map[[2]string]uint64 {
	np := make(map[[2]string]uint64)
	for _, c := range cells {
		if c.Strategy == prefetch.NP {
			np[[2]string{c.Topology, fmt.Sprint(c.Transfer)}] = c.Cycles
		}
	}
	return np
}

// RenderInterconnect formats the interconnect section: one row per cell with
// the relative execution time against the same topology's NP baseline, the
// mean per-link utilization, and the fabric's transaction count — followed
// by one finding line per transfer cost naming the first fabric (in the
// variants' ascending-bandwidth order) where PREF beats NP, i.e. the
// interconnect bandwidth at which prefetching flips from harmful to helpful.
func RenderInterconnect(cells []InterconnectRow) string {
	np := icBaselines(cells)
	t := report.NewTable(
		fmt.Sprintf("Interconnect bandwidth ladder (%s, oracle PREF vs NP per fabric)", interconnectWorkload),
		"Topology", "Links", "Strat", "T", "Cycles", "Rel.time", "Util", "Ops")
	for _, c := range cells {
		rel := "—"
		if base := np[[2]string{c.Topology, fmt.Sprint(c.Transfer)}]; base > 0 {
			rel = fmt.Sprintf("%.3f", float64(c.Cycles)/float64(base))
		}
		t.AddRow(c.Topology, fmt.Sprintf("%d", c.links()), c.Strategy.String(),
			fmt.Sprintf("%d", c.Transfer), fmt.Sprintf("%d", c.Cycles), rel,
			fmt.Sprintf("%.2f", c.Utilization()), fmt.Sprintf("%d", c.Bus.TotalOps()))
	}
	out := t.String()
	// One deterministic finding line per transfer cost, in the transfers'
	// first-seen order; the variants' order within cells is already the
	// bandwidth ladder.
	var transfers []int
	seen := map[int]bool{}
	for _, c := range cells {
		if !seen[c.Transfer] {
			seen[c.Transfer] = true
			transfers = append(transfers, c.Transfer)
		}
	}
	for _, tr := range transfers {
		first := func(threshold float64) (string, float64, bool) {
			for _, c := range cells {
				if c.Transfer != tr || c.Strategy != prefetch.PREF {
					continue
				}
				base := np[[2]string{c.Topology, fmt.Sprint(tr)}]
				if base == 0 {
					continue
				}
				if r := float64(c.Cycles) / float64(base); r < threshold {
					return c.Topology, r, true
				}
			}
			return "", 0, false
		}
		beats, beatsR, ok := first(1)
		if !ok {
			out += fmt.Sprintf("T=%d: prefetching never beats NP on this ladder\n", tr)
			continue
		}
		line := fmt.Sprintf("T=%d: prefetching first beats NP at %s (rel. time %.3f)", tr, beats, beatsR)
		if win, winR, ok := first(icClearWin); ok {
			line += fmt.Sprintf("; first clear win (<%.2f) at %s (rel. time %.3f)", icClearWin, win, winR)
		} else {
			line += fmt.Sprintf("; never a clear win (<%.2f) on this ladder", icClearWin)
		}
		out += line + "\n"
	}
	return out
}

// icClearWin is the relative-time threshold below which the finding lines
// call prefetching a clear win rather than a marginal one.
const icClearWin = 0.9
