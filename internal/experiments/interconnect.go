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

// icRungs are the swept fabrics with their display labels, in
// ascending-bandwidth order. The order is load-bearing: the finding lines
// report the first rung whose PREF/NP ratio drops below 1 as the flip point.
var icRungs = [...]struct {
	label string
	cfg   interconnect.Config
}{
	{"bus", interconnect.Config{}},
	{"bus/fcfs", interconnect.Config{Discipline: bus.FCFS}},
	{"dual", interconnect.Config{Kind: interconnect.MultiBus, Links: 2}},
	{"quad", interconnect.Config{Kind: interconnect.MultiBus, Links: 4}},
	{"directory", interconnect.Config{Kind: interconnect.Directory}},
}

// icTransfers are the data-transfer costs the interconnect section sweeps:
// the paper's headline T=8 point and the bus-saturated T=32 extreme, where
// the limitation argument is sharpest.
var icTransfers = []int{8, 32}

// icWorkload is the section's fixed workload: mp3d, the paper's most
// bus-bound program and the one where prefetching hurts the most.
const icWorkload = "mp3d"

// icClearWin is the relative-time threshold below which the finding lines
// call prefetching a clear win rather than a marginal one.
const icClearWin = 0.9

// icStrategies are the disciplines each rung runs: NP, its in-sweep
// baseline, then PREF.
var icStrategies = [...]prefetch.Strategy{prefetch.NP, prefetch.PREF}

// icCell returns where the ladder's key list holds rung r under
// icStrategies[st] at the j-th of nt transfers: rung-major, then strategy,
// then transfer.
func icCell(r, st, j, nt int) int { return (r*len(icStrategies)+st)*nt + j }

// interconnectKeys returns the ladder — every rung under NP and PREF at
// the given transfers on the section's fixed workload — in icCell's order.
// The cells run on the suite's machine except for the fabric, which each
// rung sets itself, and the prefetcher, held at the oracle so the section
// isolates the fabric.
func (s *Suite) interconnectKeys(transfers []int) []Key {
	nt := len(transfers)
	keys := make([]Key, len(icRungs)*len(icStrategies)*nt)
	for r, rung := range icRungs {
		for st, strategy := range icStrategies {
			for j, tr := range transfers {
				k := s.onSuite(Key{Workload: icWorkload, Strategy: strategy, Transfer: tr})
				k.Prefetcher, k.Fabric = prefetch.Oracle, rung.cfg
				keys[icCell(r, st, j, nt)] = k
			}
		}
	}
	return keys
}

// interconnect runs the ladder at the given transfers on the suite's worker
// pool and writes one row per cell — its execution time relative to the
// same rung's NP run at the same transfer, the mean per-link utilization,
// and the fabric's transaction count — followed by one finding line per
// transfer naming the first rung where PREF beats NP: the interconnect
// bandwidth at which prefetching flips from harmful to helpful. Unlike the
// grid sections, the NP baselines are in-sweep, so the relative time
// isolates what prefetching does *given* that fabric.
func (s *Suite) interconnect(ctx context.Context, transfers []int) (string, error) {
	keys := s.interconnectKeys(transfers)
	res, err := s.results(ctx, keys)
	if err != nil {
		return "", err
	}
	nt := len(transfers)
	// rel returns the execution time of rung r under icStrategies[st] at
	// transfer j relative to the same rung's NP cell at that transfer.
	rel := func(r, st, j int) (float64, bool) {
		base := res[icCell(r, 0, j, nt)].Cycles
		return float64(res[icCell(r, st, j, nt)].Cycles) / float64(base), base > 0
	}
	t := report.NewTable(
		fmt.Sprintf("Interconnect bandwidth ladder (%s, oracle PREF vs NP per fabric)", icWorkload),
		"Topology", "Links", "Strat", "T", "Cycles", "Rel.time", "Util", "Ops")
	for r, rung := range icRungs {
		for st, strategy := range icStrategies {
			for j, tr := range transfers {
				c, relTime := res[icCell(r, st, j, nt)], "—"
				if x, ok := rel(r, st, j); ok {
					relTime = fmt.Sprintf("%.3f", x)
				}
				t.AddRow(rung.label, max(len(c.Links), 1), strategy.String(), tr, c.Cycles, relTime,
					fmt.Sprintf("%.2f", c.BusUtilization()), c.Bus.TotalOps())
			}
		}
	}
	out := t.String()
	for j, tr := range transfers {
		// first returns the first rung whose PREF cell at tr runs below
		// threshold relative to its NP cell.
		first := func(threshold float64) (string, float64, bool) {
			for r, rung := range icRungs {
				if x, ok := rel(r, 1, j); ok && x < threshold {
					return rung.label, x, true
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
	return out, nil
}
