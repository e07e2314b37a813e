package prefetch_test

import (
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
)

// Property tests for the online engines, extending the annotation-time
// properties to simulation-time issue: online prefetching must never
// perturb the demand stream, the paper's miss-rate hierarchy must survive
// online runs, and stride issue decisions must depend only on address
// deltas.

// TestOnlinePreservesDemandStream: an online engine issues fetches beside
// the processor; it must never add, drop, reorder or retarget a demand
// reference. The annotated trace is the NP demand stream verbatim, and
// the run retires exactly the demand counts the NP baseline retires.
func TestOnlinePreservesDemandStream(t *testing.T) {
	geom := memory.DefaultGeometry()
	for name, base := range generateAll(t) {
		baseline, err := sim.RunSource(sim.DefaultConfig(), trace.FromTrace(base))
		if err != nil {
			t.Fatalf("%s/NP: %v", name, err)
		}
		for _, k := range prefetch.Kinds() {
			if !k.Online() {
				continue
			}
			annotated, err := annotateWith(k, base, prefetch.Options{Strategy: prefetch.PREF, Geometry: geom})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, k, err)
			}
			for p := range base.Streams {
				if len(annotated.Streams[p]) != len(base.Streams[p]) {
					t.Fatalf("%s/%v proc %d: online annotation changed the stream length", name, k, p)
				}
				for i := range base.Streams[p] {
					if annotated.Streams[p][i] != base.Streams[p][i] {
						t.Fatalf("%s/%v proc %d: online annotation changed event %d", name, k, p, i)
					}
				}
			}
			cfg := sim.DefaultConfig()
			cfg.Online = prefetch.OnlineConfig{Kind: k, Strategy: prefetch.PREF}
			res, err := sim.RunSource(cfg, trace.FromTrace(annotated))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, k, err)
			}
			c, b := &res.Counters, &baseline.Counters
			if c.Reads != b.Reads || c.Writes != b.Writes || c.SyncRefs != b.SyncRefs {
				t.Errorf("%s/%v: demand counts (r=%d w=%d s=%d) diverge from NP baseline (r=%d w=%d s=%d)",
					name, k, c.Reads, c.Writes, c.SyncRefs, b.Reads, b.Writes, b.SyncRefs)
			}
			if c.PrefetchesIssued != 0 {
				t.Errorf("%s/%v: online run executed %d prefetch instructions; the stream should have none",
					name, k, c.PrefetchesIssued)
			}
			if got := c.OnlineIssued + c.OnlineFiltered + c.OnlineDropped; got != c.OnlineEmitted {
				t.Errorf("%s/%v: online accounting leak: issued+filtered+dropped=%d, emitted=%d",
					name, k, got, c.OnlineEmitted)
			}
			if c.OnlineIssued != c.PrefetchFetches {
				t.Errorf("%s/%v: online issued %d but prefetch fetches %d — a fetch came from nowhere",
					name, k, c.OnlineIssued, c.PrefetchFetches)
			}
		}
	}
}

// TestMissRateOrderingOnline extends the paper's metric hierarchy —
// adjusted CPU miss rate <= CPU miss rate <= total miss rate — to runs
// driven by each online engine, with the invariant checker verifying the
// outstanding-prefetch bound at every completion.
func TestMissRateOrderingOnline(t *testing.T) {
	for name, base := range generateAll(t) {
		for _, k := range prefetch.Kinds() {
			if !k.Online() {
				continue
			}
			cfg := sim.DefaultConfig()
			cfg.Online = prefetch.OnlineConfig{Kind: k, Strategy: prefetch.PREF}
			cfg.CheckInvariants = true
			res, err := sim.RunSource(cfg, trace.FromTrace(base))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, k, err)
			}
			adj, cpu, total := res.AdjustedCPUMissRate(), res.CPUMissRate(), res.TotalMissRate()
			if adj > cpu {
				t.Errorf("%s/%v: adjusted MR %.6f above CPU MR %.6f", name, k, adj, cpu)
			}
			if cpu > total {
				t.Errorf("%s/%v: CPU MR %.6f above total MR %.6f", name, k, cpu, total)
			}
			if res.Online == nil {
				t.Fatalf("%s/%v: no engine stats on an online run", name, k)
			}
			// The engine sees every demand reference except the
			// lock-operation accesses (sync refs are not shown).
			if want := res.Counters.DemandRefs() - res.Counters.SyncRefs; res.Online.Observed != want {
				t.Errorf("%s/%v: engine observed %d refs, simulator retired %d non-sync",
					name, k, res.Online.Observed, want)
			}
			if res.Online.Emitted != res.Counters.OnlineEmitted {
				t.Errorf("%s/%v: engine emitted %d, simulator recorded %d",
					name, k, res.Online.Emitted, res.Counters.OnlineEmitted)
			}
		}
	}
}

// TestStrideRelabelInvariance is the metamorphic property of the stride
// engine: issue decisions depend only on address *deltas*, so relabeling
// the address space by a constant line-aligned offset must shift every
// candidate by exactly that offset — same count, same order, same Excl
// flags.
func TestStrideRelabelInvariance(t *testing.T) {
	g := memory.DefaultGeometry()
	const offset = memory.Addr(0x740000) // line-aligned relabeling constant
	// A deterministic mixed stream: unit stride, line stride, a stride
	// break, writes, and an irregular tail.
	var refs []prefetch.Ref
	for i := 0; i < 64; i++ {
		refs = append(refs, prefetch.Ref{PC: 1, Addr: memory.Addr(0x1000 + i*4), Miss: i%8 == 0})
	}
	for i := 0; i < 32; i++ {
		refs = append(refs, prefetch.Ref{PC: 2, Addr: memory.Addr(0x8000 + i*96), Write: true, Miss: true})
	}
	for i := 0; i < 16; i++ {
		refs = append(refs, prefetch.Ref{PC: 3, Addr: memory.Addr(0x40000 + (i*i)*32), Miss: true})
	}
	for _, st := range []prefetch.Strategy{prefetch.PREF, prefetch.EXCL, prefetch.LPD} {
		opt := prefetch.EngineOptions{Strategy: st, Geometry: g}
		a := prefetch.ByKind(prefetch.Stride).NewEngine(opt)
		b := prefetch.ByKind(prefetch.Stride).NewEngine(opt)
		var bufA, bufB []prefetch.Candidate
		for i, r := range refs {
			r.Line = g.LineAddr(r.Addr)
			bufA = a.Observe(r, bufA[:0])
			shifted := r
			shifted.Addr += offset
			shifted.Line = g.LineAddr(shifted.Addr)
			bufB = b.Observe(shifted, bufB[:0])
			if len(bufA) != len(bufB) {
				t.Fatalf("%s: step %d: %d candidates vs %d after relabeling", st, i, len(bufA), len(bufB))
			}
			for j := range bufA {
				want := prefetch.Candidate{Line: bufA[j].Line + offset, Excl: bufA[j].Excl}
				if bufB[j] != want {
					t.Fatalf("%s: step %d candidate %d: relabeled engine emitted %v, want %v",
						st, i, j, bufB[j], want)
				}
			}
		}
	}
}
