package experiments

import (
	"context"
	"testing"

	"busprefetch/internal/coherence"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
)

// ablResults runs keys on a suite at scale 0.15 and returns their results
// in key order.
func ablResults(t *testing.T, keys []Key) []*sim.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	res, err := NewSuite(Config{Scale: 0.15, Seed: 1}).results(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// relTime is a's execution time relative to base's.
func relTime(a, base *sim.Result) float64 { return float64(a.Cycles) / float64(base.Cycles) }

// invalShare is invalidation misses as a fraction of r's CPU misses.
func invalShare(r *sim.Result) float64 {
	return float64(r.Counters.InvalidationMisses()) / float64(r.Counters.TotalCPUMisses())
}

func TestAblationCacheSize(t *testing.T) {
	res := ablResults(t, cacheSizeSweep("mp3d", 16, 64).keys)
	// The paper: larger caches reduce non-sharing misses, so invalidation
	// misses become MORE dominant.
	if invalShare(res[1]) <= invalShare(res[0]) {
		t.Errorf("invalidation share fell with cache size: %.2f -> %.2f", invalShare(res[0]), invalShare(res[1]))
	}
	if res[1].CPUMissRate() >= res[0].CPUMissRate() {
		t.Errorf("CPU miss rate rose with cache size: %.4f -> %.4f", res[0].CPUMissRate(), res[1].CPUMissRate())
	}
}

func TestAblationLineSize(t *testing.T) {
	res := ablResults(t, lineSizeSweep("mp3d", 16, 64).keys)
	// The paper: larger block sizes increase false sharing.
	if res[1].FalseSharingMissRate() <= res[0].FalseSharingMissRate() {
		t.Errorf("false sharing fell with line size: %.4f -> %.4f",
			res[0].FalseSharingMissRate(), res[1].FalseSharingMissRate())
	}
}

func TestAblationAssociativity(t *testing.T) {
	sw := associativitySweep("topopt")
	res := ablResults(t, sw.keys)
	dm := res[0]
	// Both the victim cache and associativity must cut Topopt's conflict
	// misses (paper §4.3): CPU miss rate strictly below direct-mapped.
	for i, r := range res[1:] {
		label := sw.label(sw.keys[i+1])
		if r.CPUMissRate() >= dm.CPUMissRate() {
			t.Errorf("%s: CPU MR %.4f not below direct-mapped %.4f", label, r.CPUMissRate(), dm.CPUMissRate())
		}
		if rel := relTime(r, dm); rel >= 1.0 {
			t.Errorf("%s: no speedup over direct-mapped (%.3f)", label, rel)
		}
	}
}

func TestAblationProtocol(t *testing.T) {
	sw := protocolSweep("mp3d", 8)
	res := ablResults(t, sw.keys)
	np := map[coherence.Kind]*sim.Result{}
	for i, k := range sw.keys {
		if k.Strategy == prefetch.NP {
			np[k.Protocol] = res[i]
		}
	}
	illinois, msi, dragon := np[coherence.Illinois], np[coherence.MSI], np[coherence.Dragon]
	// MSI pays an invalidation bus operation for every first write to a
	// line; Illinois's private-clean state avoids it. Mp3d rereads and
	// rewrites its own (mostly single-owner) particle lines every step, so
	// MSI must demand visibly more of the bus or run longer.
	if msi.BusUtilization() <= illinois.BusUtilization() && msi.Cycles <= illinois.Cycles {
		t.Errorf("MSI (bus %.3f, %d cycles) not costlier than Illinois (bus %.3f, %d cycles)",
			msi.BusUtilization(), msi.Cycles, illinois.BusUtilization(), illinois.Cycles)
	}
	for i, k := range sw.keys {
		r := res[i]
		if k.Protocol == coherence.Dragon {
			// A write-update protocol never invalidates, so invalidation
			// misses (false sharing included) cannot exist...
			if r.InvalidationMissRate() != 0 || r.FalseSharingMissRate() != 0 {
				t.Errorf("Dragon %s: invalidation misses survive (inval %.4f, fs %.4f)",
					k.Strategy, r.InvalidationMissRate(), r.FalseSharingMissRate())
			}
			// ...but writes to shared lines pay in update broadcasts.
			if r.UpdateRate() == 0 {
				t.Errorf("Dragon %s: no update traffic on a sharing workload", k.Strategy)
			}
		} else if r.UpdateRate() != 0 {
			t.Errorf("%s %s: update traffic under a write-invalidate protocol (%.4f)", k.Protocol, k.Strategy, r.UpdateRate())
		}
	}
	// The paper's trade made quantitative: Dragon removes the invalidation
	// misses prefetching cannot cover, but its sustained update broadcasts
	// must cost more total bus occupancy than Illinois pays under NP.
	if d, i := dragon.Bus.BusyCycles, illinois.Bus.BusyCycles; d <= i {
		t.Errorf("Dragon NP bus occupancy (%d cycles) does not exceed Illinois (%d)", d, i)
	}
}

func TestAblationPrefetchPlacement(t *testing.T) {
	res := ablResults(t, placementSweep("mp3d").keys)
	np, cachePf, bufPf := res[0], res[1], res[2]
	// Cache prefetching must beat the non-snooping buffer on a workload
	// dominated by shared data — the paper's §3.1 argument.
	if cachePf.Cycles >= np.Cycles {
		t.Errorf("cache prefetching did not help: %.3f", relTime(cachePf, np))
	}
	if bufPf.Cycles <= cachePf.Cycles {
		t.Errorf("buffer prefetching (%.3f) beat cache prefetching (%.3f) on shared-heavy mp3d",
			relTime(bufPf, np), relTime(cachePf, np))
	}
}

// TestAblationDistance is the §4.3 prefetch-distance study, which no report
// section prints: NP, then PREF at distances of 25, 100 and 800 cycles.
// Short distances leave prefetches in progress, long ones trade them for
// conflict misses, and "increasing the prefetch distance to the point that
// virtually all prefetches complete does not pay off".
func TestAblationDistance(t *testing.T) {
	keys := []Key{ablationKey("mp3d", prefetch.NP)}
	for _, d := range []int32{25, 100, 800} {
		k := ablationKey("mp3d", prefetch.PREF)
		k.Distance = d
		keys = append(keys, k)
	}
	res := ablResults(t, keys)
	// Dist 800 must not beat dist 100 meaningfully.
	if d100, d800 := relTime(res[2], res[0]), relTime(res[3], res[0]); d800 < d100-0.02 {
		t.Errorf("dist 800 (%.3f) clearly beat dist 100 (%.3f) — the paper's §4.3 result inverted", d800, d100)
	}
	// And every PREF variant should beat NP at this (8-cycle) architecture.
	for i, r := range res[1:] {
		if rel := relTime(r, res[0]); rel >= 1.05 {
			t.Errorf("dist %d: rel time %.3f far above NP", keys[i+1].Distance, rel)
		}
	}
}

// TestAblationMemLatency is the memory-latency study, which no report
// section prints: NP and PREF at total memory latencies of 25 and 200
// cycles. The paper's premise: "prefetching is less useful and possibly
// harmful if there is little latency to hide" — at low latency the gains
// collapse.
func TestAblationMemLatency(t *testing.T) {
	var keys []Key
	for _, lat := range []int32{25, 200} {
		for _, st := range []prefetch.Strategy{prefetch.NP, prefetch.PREF} {
			k := ablationKey("mp3d", st)
			k.MemLatency = lat
			keys = append(keys, k)
		}
	}
	res := ablResults(t, keys)
	// The improvement at latency 25 must be smaller than at latency 200.
	if gain25, gain200 := 1-relTime(res[1], res[0]), 1-relTime(res[3], res[2]); gain25 >= gain200 {
		t.Errorf("prefetching gained more at low latency (%.3f) than high (%.3f)", gain25, gain200)
	}
}
