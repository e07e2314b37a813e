package prefetch_test

import (
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
)

// The engine conformance suite, mirroring the coherence-protocol one:
// each online engine's issue behavior is pinned on explicit demand
// sequences — stride detection, temporal replay, pointer-chase candidate
// extraction — and a set of engine-generic laws (degree bound, line
// alignment, NP never issues, fresh engines are independent) runs over
// every registered engine, so a future engine added to the registry is
// exercised without new test plumbing.

// step is one scripted call into an engine: a demand reference to
// observe, or a fill notification.
type step struct {
	// fill, when true, delivers Fill(fillLine, fillWasPref) instead of an
	// observation.
	fill        bool
	fillLine    memory.Addr
	fillWasPref bool

	ref prefetch.Ref
	// want is the exact candidate list Observe must return for this step.
	want []prefetch.Candidate
}

// obs builds an observation step. The line is derived from the address.
func obs(pc uint64, addr memory.Addr, write, miss bool, want ...prefetch.Candidate) step {
	g := memory.DefaultGeometry()
	return step{
		ref:  prefetch.Ref{PC: pc, Addr: addr, Line: g.LineAddr(addr), Write: write, Miss: miss},
		want: want,
	}
}

func fill(la memory.Addr, wasPref bool) step {
	return step{fill: true, fillLine: la, fillWasPref: wasPref}
}

func cand(la memory.Addr) prefetch.Candidate { return prefetch.Candidate{Line: la} }
func excl(la memory.Addr) prefetch.Candidate { return prefetch.Candidate{Line: la, Excl: true} }
func engineOpt(st prefetch.Strategy) prefetch.EngineOptions {
	return prefetch.EngineOptions{Strategy: st, Geometry: memory.DefaultGeometry()}
}

// runScript drives a fresh engine through the steps, failing on the first
// mismatch between returned and expected candidates.
func runScript(t *testing.T, kind prefetch.Kind, opt prefetch.EngineOptions, steps []step) {
	t.Helper()
	e := prefetch.ByKind(kind).NewEngine(opt)
	if e == nil {
		t.Fatalf("%v: NewEngine returned nil", kind)
	}
	if e.Kind() != kind {
		t.Fatalf("engine reports kind %v, want %v", e.Kind(), kind)
	}
	var buf []prefetch.Candidate
	for i, s := range steps {
		if s.fill {
			e.Fill(s.fillLine, s.fillWasPref)
			continue
		}
		buf = e.Observe(s.ref, buf[:0])
		if len(buf) != len(s.want) {
			t.Fatalf("step %d (%v): got %d candidates %v, want %d %v",
				i, s.ref, len(buf), buf, len(s.want), s.want)
		}
		for j := range buf {
			if buf[j] != s.want[j] {
				t.Fatalf("step %d (%v): candidate %d = %v, want %v", i, s.ref, j, buf[j], s.want[j])
			}
		}
	}
}

// TestStrideDetection pins the stride engine's issue decisions: two
// repeats of a stride build confidence, the third access predicts. Strides
// of a line or more predict along the raw stride; sub-line strides widen
// to whole lines so the engine asks for the next lines, not next words.
func TestStrideDetection(t *testing.T) {
	t.Run("two-line stride", func(t *testing.T) {
		runScript(t, prefetch.Stride, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),
			obs(1, 0x1040, false, true),
			obs(1, 0x1080, false, true, cand(0x10C0), cand(0x1100)),
			obs(1, 0x10C0, false, false, cand(0x1100), cand(0x1140)),
		})
	})
	t.Run("sub-line stride widens to next lines", func(t *testing.T) {
		runScript(t, prefetch.Stride, engineOpt(prefetch.PREF), []step{
			obs(1, 0x2000, false, true),
			obs(1, 0x2004, false, false),
			obs(1, 0x2008, false, false, cand(0x2020), cand(0x2040)),
		})
	})
	t.Run("negative stride", func(t *testing.T) {
		runScript(t, prefetch.Stride, engineOpt(prefetch.PREF), []step{
			obs(1, 0x3080, false, true),
			obs(1, 0x3040, false, true),
			obs(1, 0x3000, false, true, cand(0x2FC0), cand(0x2F80)),
		})
	})
	t.Run("stride change resets confidence", func(t *testing.T) {
		runScript(t, prefetch.Stride, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),
			obs(1, 0x1040, false, true),
			obs(1, 0x9000, false, true), // break: new stride, confidence resets
			obs(1, 0x9040, false, true), // one repeat: not confident yet
			obs(1, 0x9080, false, true, cand(0x90C0), cand(0x9100)),
		})
	})
	t.Run("PCs are independent", func(t *testing.T) {
		runScript(t, prefetch.Stride, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),
			obs(2, 0x1040, false, true),
			obs(1, 0x1080, false, true), // PC 1's stride is 0x80, seen once
			obs(2, 0x10C0, false, true), // PC 2's stride is 0x80, seen once
			obs(1, 0x1100, false, true, cand(0x1180), cand(0x1200)),
		})
	})
	t.Run("LPD predicts further ahead", func(t *testing.T) {
		runScript(t, prefetch.Stride, engineOpt(prefetch.LPD), []step{
			obs(1, 0x1000, false, true),
			obs(1, 0x1040, false, true),
			// lookahead 4: skip 4 strides ahead, then degree lines.
			obs(1, 0x1080, false, true, cand(0x1180), cand(0x11C0)),
		})
	})
	t.Run("EXCL marks write-site predictions exclusive", func(t *testing.T) {
		runScript(t, prefetch.Stride, engineOpt(prefetch.EXCL), []step{
			obs(1, 0x1000, true, true),
			obs(1, 0x1040, true, true),
			obs(1, 0x1080, true, true, excl(0x10C0), excl(0x1100)),
			// The same site read instead of written: plain prefetches.
			obs(1, 0x10C0, false, false, cand(0x1100), cand(0x1140)),
		})
	})
}

// TestTemporalReplay pins the temporal engine: the training unit learns
// per-PC miss successions into the mapping cache, and a recurring miss
// replays the learned chain.
func TestTemporalReplay(t *testing.T) {
	t.Run("learned chain replays", func(t *testing.T) {
		runScript(t, prefetch.Temporal, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),                             // A
			obs(1, 0x5000, false, true),                             // B: learn A->B
			obs(1, 0x9000, false, true),                             // C: learn B->C
			obs(1, 0x1000, false, true, cand(0x5000), cand(0x9000)), // A again: replay B, C
		})
	})
	t.Run("hits neither train nor trigger", func(t *testing.T) {
		runScript(t, prefetch.Temporal, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),
			obs(1, 0x5000, false, false), // hit: invisible to the miss stream
			obs(1, 0x9000, false, true),  // learn A->C, not A->B->C
			obs(1, 0x1000, false, true, cand(0x9000)),
		})
	})
	t.Run("divergence overwrites the mapping", func(t *testing.T) {
		runScript(t, prefetch.Temporal, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),
			obs(1, 0x5000, false, true),               // learn A->B
			obs(1, 0x1000, false, true, cand(0x5000)), // A: replay B
			obs(1, 0x9000, false, true),               // diverge: A->C overwrites A->B
			obs(1, 0x1000, false, true, cand(0x9000)),
		})
	})
	t.Run("LPD skips ahead along the chain", func(t *testing.T) {
		runScript(t, prefetch.Temporal, engineOpt(prefetch.LPD), []step{
			obs(1, 0x1000, false, true),
			obs(1, 0x5000, false, true),
			obs(1, 0x9000, false, true),
			obs(1, 0xd000, false, true),
			obs(1, 0x11000, false, true),
			obs(1, 0x15000, false, true),
			// A again: the chain is B,C,D,E,F; lookahead 4 skips B,C,D.
			obs(1, 0x1000, false, true, cand(0x11000), cand(0x15000)),
		})
	})
}

// TestPointerChase pins the pointer engine: a far miss following a
// reference learns a pointer edge; a fill of the source line queues the
// learned targets ("scanning the filled line's contents"), emitted at the
// next observation.
func TestPointerChase(t *testing.T) {
	t.Run("fill scans learned edges", func(t *testing.T) {
		runScript(t, prefetch.Pointer, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true), // A
			obs(2, 0x8000, false, true), // far jump: learn A->B
			fill(0x1000, false),         // A fills: its "contents" point at B
			obs(3, 0x2000, false, false, cand(0x8000)),
		})
	})
	t.Run("near jumps are stride territory", func(t *testing.T) {
		runScript(t, prefetch.Pointer, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),
			obs(2, 0x1020, false, true), // next line: not a pointer signature
			fill(0x1000, false),
			obs(3, 0x2000, false, false),
		})
	})
	t.Run("hits do not learn edges", func(t *testing.T) {
		runScript(t, prefetch.Pointer, engineOpt(prefetch.PREF), []step{
			obs(1, 0x1000, false, true),
			obs(2, 0x8000, false, false), // far but a hit: no dereference miss
			fill(0x1000, false),
			obs(3, 0x2000, false, false),
		})
	})
	t.Run("fan-out is bounded FIFO", func(t *testing.T) {
		var steps []step
		// Learn pointerFanout+1 = 5 edges out of line A; the oldest drops.
		targets := []memory.Addr{0x8000, 0x10000, 0x18000, 0x20000, 0x28000}
		for _, b := range targets {
			steps = append(steps,
				obs(1, 0x1000, false, true),
				obs(2, b, false, true))
		}
		steps = append(steps, fill(0x1000, false))
		// Degree 2 emits the two oldest surviving edges (0x8000 fell out).
		steps = append(steps, obs(3, 0x2000, false, false, cand(0x10000), cand(0x18000)))
		runScript(t, prefetch.Pointer, engineOpt(prefetch.PREF), steps)
	})
}

// onlineKinds returns the registered online engines.
func onlineKinds() []prefetch.Kind {
	var ks []prefetch.Kind
	for _, k := range prefetch.Kinds() {
		if k.Online() {
			ks = append(ks, k)
		}
	}
	return ks
}

// exerciseStream is a deterministic mixed reference stream that makes
// every engine train and emit: strided runs, recurring miss chains, and
// far jumps, with interleaved fills.
func exerciseStream(e prefetch.Engine, degree int, visit func(step int, cands []prefetch.Candidate)) {
	g := memory.DefaultGeometry()
	var buf []prefetch.Candidate
	n := 0
	emit := func(r prefetch.Ref) {
		r.Line = g.LineAddr(r.Addr)
		buf = e.Observe(r, buf[:0])
		visit(n, buf)
		n++
		// Pretend every candidate eventually fills, so fill-triggered
		// paths (pointer chasing) run too.
		for _, c := range buf {
			e.Fill(c.Line, true)
		}
	}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 32; i++ {
			emit(prefetch.Ref{PC: 1, Addr: memory.Addr(0x1000 + i*4), Write: i%8 == 0, Miss: i%8 == 0})
		}
		for i := 0; i < 16; i++ {
			emit(prefetch.Ref{PC: 2, Addr: memory.Addr(0x40000 + i*0x4000), Write: false, Miss: true})
			e.Fill(g.LineAddr(memory.Addr(0x40000+i*0x4000)), false)
		}
		for i := 0; i < 8; i++ {
			emit(prefetch.Ref{PC: 3, Addr: memory.Addr(0x200000 + i*64), Write: true, Miss: i%2 == 0})
		}
	}
}

// TestEngineLaws runs the engine-generic conformance laws over every
// registered online engine: candidates per observation never exceed the
// configured degree, candidates are line-aligned, the NP strategy never
// issues, and a fresh engine reproduces itself exactly (determinism).
func TestEngineLaws(t *testing.T) {
	g := memory.DefaultGeometry()
	for _, kind := range onlineKinds() {
		for _, degree := range []int{1, 2, 4} {
			opt := prefetch.EngineOptions{Strategy: prefetch.PREF, Geometry: g, Degree: degree}
			t.Run(kind.String(), func(t *testing.T) {
				e := prefetch.ByKind(kind).NewEngine(opt)
				total := 0
				exerciseStream(e, degree, func(step int, cands []prefetch.Candidate) {
					if len(cands) > degree {
						t.Fatalf("degree %d: step %d returned %d candidates", degree, step, len(cands))
					}
					for _, c := range cands {
						if g.LineAddr(c.Line) != c.Line {
							t.Fatalf("step %d: candidate %#x not line-aligned", step, uint64(c.Line))
						}
					}
					total += len(cands)
				})
				if total == 0 {
					t.Errorf("%v/degree %d: engine never emitted on the exercise stream", kind, degree)
				}
				st := e.Stats()
				if st.Observed == 0 || st.Emitted != uint64(total) {
					t.Errorf("%v: stats %+v inconsistent with %d observed emissions", kind, st, total)
				}
			})
		}
	}
}

// TestEnginesNeverIssueUnderNP: the NP strategy means no prefetching —
// engines may train, but not one candidate leaves any engine.
func TestEnginesNeverIssueUnderNP(t *testing.T) {
	for _, kind := range onlineKinds() {
		e := prefetch.ByKind(kind).NewEngine(engineOpt(prefetch.NP))
		exerciseStream(e, prefetch.DefaultDegree, func(step int, cands []prefetch.Candidate) {
			if len(cands) != 0 {
				t.Fatalf("%v: emitted %v under NP at step %d", kind, cands, step)
			}
		})
		if st := e.Stats(); st.Emitted != 0 {
			t.Errorf("%v: stats claim %d emissions under NP", kind, st.Emitted)
		}
	}
}

// TestEngineDeterminism: two fresh engines fed the same stream return the
// same candidates at every step — no map-order or time dependence.
func TestEngineDeterminism(t *testing.T) {
	for _, kind := range onlineKinds() {
		a := prefetch.ByKind(kind).NewEngine(engineOpt(prefetch.PREF))
		b := prefetch.ByKind(kind).NewEngine(engineOpt(prefetch.PREF))
		var got [][]prefetch.Candidate
		exerciseStream(a, prefetch.DefaultDegree, func(step int, cands []prefetch.Candidate) {
			got = append(got, append([]prefetch.Candidate(nil), cands...))
		})
		exerciseStream(b, prefetch.DefaultDegree, func(step int, cands []prefetch.Candidate) {
			want := got[step]
			if len(cands) != len(want) {
				t.Fatalf("%v: step %d diverged: %v vs %v", kind, step, cands, want)
			}
			for i := range cands {
				if cands[i] != want[i] {
					t.Fatalf("%v: step %d diverged: %v vs %v", kind, step, cands, want)
				}
			}
		})
	}
}

// TestOracleHasNoEngine pins the oracle's place in the registry: it
// annotates offline and constructs no online engine.
func TestOracleHasNoEngine(t *testing.T) {
	p := prefetch.ByKind(prefetch.Oracle)
	if e := p.NewEngine(engineOpt(prefetch.PREF)); e != nil {
		t.Errorf("oracle returned an engine: %v", e)
	}
	for _, k := range prefetch.Kinds() {
		if k.Online() && prefetch.ByKind(k).NewEngine(engineOpt(prefetch.PREF)) == nil {
			t.Errorf("%v: online prefetcher returned no engine", k)
		}
	}
}
