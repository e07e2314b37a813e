package prefetch

// The pluggable prefetcher kernel. The paper's prefetcher is an offline
// oracle: AnnotateSource inserts prefetch events into the trace with perfect
// knowledge of future misses. This file extracts the seam that lets online
// engines — prefetchers that train on the demand stream *during* the
// simulation, with no future knowledge — slot in beside it, mirroring how
// internal/coherence extracted Protocol from the simulator.
//
// A Prefetcher is the selectable unit: the oracle (AnnotateSource wrapped
// behind the interface) or one of three online engines. Online engines implement
// Engine, the per-processor training/prediction unit the simulator drives:
// the proc loop shows every demand reference to Observe, which may return
// candidate prefetch line addresses; the simulator issues them as bus
// fetches subject to the same outstanding-prefetch bound as oracle
// prefetch instructions, except that a full issue buffer *drops* the
// candidate instead of stalling the CPU — an online engine is hardware
// beside the processor, not an instruction in its stream.
//
// The traces carry no program counter, so engines key their tables on a PC
// proxy the simulator derives from the event's instruction gap (see
// sim/proc.go): references from the same static access site share their
// generator-assigned gap, which makes the proxy address-independent —
// exactly the property the PC-indexed tables need.

import (
	"fmt"

	"busprefetch/internal/memory"
	"busprefetch/internal/names"
	"busprefetch/internal/trace"
)

// Kind identifies a prefetcher implementation.
type Kind int

const (
	// Oracle is the paper's offline prefetcher: AnnotateSource inserts prefetch
	// events into the trace ahead of predicted misses, with perfect
	// coverage by construction. The zero value, so a zero sim.Config runs
	// exactly as before the online kernel existed.
	Oracle Kind = iota
	// Stride is the sequential/stride engine: a per-PC table that learns
	// each access site's address stride and, once confident, prefetches
	// the lines the site will touch next.
	Stride
	// Temporal is the PC-indexed temporal engine (SISB-style): a training
	// unit records, per PC, the previous miss line, building a mapping
	// cache of observed miss successions; predictions replay the recorded
	// chain from the current miss.
	Temporal
	// Pointer is the pointer-chase engine for linked data structures: it
	// learns which far lines a line's contents lead to, and on each fill
	// scans those learned out-edges as candidates — the trace-driven
	// stand-in for scanning the filled line's words for pointers (the
	// traces carry addresses, not data values).
	Pointer
	numPrefetchers
)

var prefetcherNames = []string{"oracle", "stride", "temporal", "pointer"}

func (k Kind) String() string { return names.Lookup("Prefetcher", prefetcherNames, int(k)) }

// Valid reports whether k names a known prefetcher.
func (k Kind) Valid() bool { return k >= 0 && k < numPrefetchers }

// Online reports whether k trains during simulation (everything but the
// oracle).
func (k Kind) Online() bool { return k.Valid() && k != Oracle }

// Kinds returns every prefetcher in presentation order.
func Kinds() []Kind { return []Kind{Oracle, Stride, Temporal, Pointer} }

// ParsePrefetcher resolves a prefetcher name ("oracle", "stride",
// "temporal", "pointer", case-insensitive) to its Kind.
func ParsePrefetcher(name string) (Kind, error) {
	i, err := names.Parse("prefetcher", prefetcherNames, name)
	if err != nil {
		return 0, fmt.Errorf("prefetch: %w", err)
	}
	return Kind(i), nil
}

// Prefetcher is one selectable prefetching implementation: the offline
// oracle or an online engine.
type Prefetcher interface {
	// Kind identifies the prefetcher.
	Kind() Kind
	// String returns the prefetcher's presentation name.
	String() string
	// AnnotateSource prepares a trace for a run under this prefetcher.
	// The oracle returns a source with prefetch events inserted per the
	// options; online prefetchers return src unchanged — their
	// prefetches are issued at simulation time by the Engine, so the
	// replayed stream is exactly the NP demand stream. prof optionally
	// supplies a memoized sharing profile (computed with opt.Geometry)
	// for the strategies that need whole-trace knowledge; nil means
	// compute it on demand.
	AnnotateSource(src trace.Source, opt Options, prof *trace.SharingProfile) (trace.Source, error)
	// NewEngine returns a fresh per-processor online engine, or nil for
	// the oracle (which needs none). Engines are stateful and must not be
	// shared across processors or runs.
	NewEngine(opt EngineOptions) Engine
}

// ByKind returns the prefetcher implementation for k. It panics on an
// unknown kind: kinds are validated at configuration time, so an invalid
// kind here is a programming error.
func ByKind(k Kind) Prefetcher {
	switch k {
	case Oracle:
		return oraclePrefetcher{}
	case Stride, Temporal, Pointer:
		return onlinePrefetcher{kind: k}
	}
	panic(fmt.Sprintf("prefetch: no implementation for %v", k))
}

// Prefetchers returns one instance of every prefetcher, in Kinds order.
func Prefetchers() []Prefetcher {
	ps := make([]Prefetcher, 0, numPrefetchers)
	for _, k := range Kinds() {
		ps = append(ps, ByKind(k))
	}
	return ps
}

// Ref is one demand reference shown to an online engine, in program order.
type Ref struct {
	// PC is the access site's identity — on real hardware the program
	// counter; here the simulator's gap-derived proxy (see package
	// comment). Engines only ever compare PCs for equality.
	PC uint64
	// Addr is the word-granular reference address.
	Addr memory.Addr
	// Line is Addr's cache-line address.
	Line memory.Addr
	// Write is true for demand writes (lock accesses are never shown).
	Write bool
	// Miss is true when the access missed the local cache hierarchy —
	// including merges with a still-in-flight prefetch.
	Miss bool
}

// Candidate is one line an engine proposes to prefetch.
type Candidate struct {
	// Line is the line address to fetch.
	Line memory.Addr
	// Excl requests a read-for-ownership fetch (the EXCL discipline's
	// exclusive prefetch).
	Excl bool
}

// Engine is one processor's online prefetcher. The simulator calls Observe
// for every demand reference the processor retires, issues the returned
// candidates (bounded by the outstanding-prefetch limit), and reports
// fills and first uses back so the engine can score itself.
//
// Engines must be deterministic: candidate order and content may depend
// only on the sequence of calls, never on map iteration order or time.
type Engine interface {
	// Kind identifies the engine.
	Kind() Kind
	// Observe shows the engine one demand reference and returns the
	// candidate prefetches it wants issued, appended to cand (whose
	// backing array the caller reuses; engines must not retain it). At
	// most its configured degree of candidates per call. Engines train
	// on every call but emit nothing under the NP strategy.
	Observe(r Ref, cand []Candidate) []Candidate
	// Fill reports a line install (demand or prefetch) into the
	// processor's cache or prefetch buffer.
	Fill(la memory.Addr, wasPrefetch bool)
	// Useful reports the first demand use of a prefetched line — the
	// engine's accuracy feedback.
	Useful(la memory.Addr)
	// Stats returns the engine's training/issue bookkeeping.
	Stats() EngineStats
}

// DefaultDegree is the number of candidate lines an engine may emit per
// observed reference when EngineOptions.Degree is zero.
const DefaultDegree = 2

// lpdLookahead is the online analogue of the LPD strategy's 400-cycle
// prefetch distance: engines predict 4x further ahead (LongDistance /
// DefaultDistance) along their learned pattern.
const lpdLookahead = LongDistance / DefaultDistance

// EngineOptions parameterizes an online engine.
type EngineOptions struct {
	// Strategy is the prefetch discipline the engine applies online: NP
	// emits nothing, EXCL turns write-site predictions into exclusive
	// fetches, LPD predicts lpdLookahead steps further along the learned
	// pattern, and PREF/PWS are identical — PWS's extra write-shared
	// coverage needs the oracle's whole-trace sharing knowledge, which an
	// online engine does not have.
	Strategy Strategy
	// Geometry supplies the line size candidates are aligned to.
	Geometry memory.Geometry
	// Degree bounds candidates per observed reference; zero selects
	// DefaultDegree.
	Degree int
}

func (o EngineOptions) degree() int {
	if o.Degree > 0 {
		return o.Degree
	}
	return DefaultDegree
}

func (o EngineOptions) lookahead() int {
	if o.Strategy == LPD {
		return lpdLookahead
	}
	return 1
}

// excl reports whether a prediction triggered by r should fetch exclusive.
func (o EngineOptions) excl(r Ref) bool {
	return o.Strategy == EXCL && r.Write
}

// EngineStats is an engine's own bookkeeping, in the style of the SISB
// accurate/untimely/divergence counters. The authoritative
// coverage/accuracy/timeliness measurement is the obs lifetime taxonomy;
// these counters are the engine's internal view, cheap enough to keep
// always-on.
type EngineStats struct {
	// Observed counts demand references shown to the engine.
	Observed uint64
	// Trained counts table updates (entries created or patterns learned).
	Trained uint64
	// Emitted counts candidate lines proposed.
	Emitted uint64
	// Useful counts prefetched lines that saw a first demand use.
	Useful uint64
	// Untimely counts demand misses on lines the engine had recently
	// proposed but that had not filled yet (tracked over a bounded window
	// of recent emissions).
	Untimely uint64
	// Divergence counts learned patterns overwritten by contradicting
	// observations (the temporal engine's mapping rewrites).
	Divergence uint64
}

// Add accumulates o into s (per-processor engines sum to a run total).
func (s *EngineStats) Add(o EngineStats) {
	s.Observed += o.Observed
	s.Trained += o.Trained
	s.Emitted += o.Emitted
	s.Useful += o.Useful
	s.Untimely += o.Untimely
	s.Divergence += o.Divergence
}

// OnlineConfig selects and parameterizes an online engine for a
// simulation run (sim.Config.Online). The zero value — the oracle —
// enables nothing: the simulator constructs no engines and its hot paths
// are byte-identical to a build without the online kernel.
type OnlineConfig struct {
	// Kind selects the engine; Oracle (the zero value) disables online
	// prefetching.
	Kind Kind
	// Strategy is the discipline the engine applies (see
	// EngineOptions.Strategy).
	Strategy Strategy
}

// Enabled reports whether an online engine is configured.
func (c OnlineConfig) Enabled() bool { return c.Kind != Oracle }

// Validate reports an error for inconsistent configurations.
func (c OnlineConfig) Validate() error {
	if !c.Kind.Valid() {
		return fmt.Errorf("prefetch: unknown prefetcher %d", int(c.Kind))
	}
	if c.Strategy < NP || c.Strategy >= NumStrategies {
		return fmt.Errorf("prefetch: bad strategy %d", int(c.Strategy))
	}
	return nil
}

// NewEngine constructs the configured per-processor engine, or nil when
// online prefetching is disabled.
func (c OnlineConfig) NewEngine(g memory.Geometry) Engine {
	if !c.Enabled() {
		return nil
	}
	return ByKind(c.Kind).NewEngine(EngineOptions{Strategy: c.Strategy, Geometry: g})
}

// oraclePrefetcher adapts the offline annotator to the Prefetcher
// interface.
type oraclePrefetcher struct{}

func (oraclePrefetcher) Kind() Kind     { return Oracle }
func (oraclePrefetcher) String() string { return Oracle.String() }
func (oraclePrefetcher) AnnotateSource(src trace.Source, opt Options, prof *trace.SharingProfile) (trace.Source, error) {
	return AnnotateSource(src, opt, prof)
}
func (oraclePrefetcher) NewEngine(EngineOptions) Engine { return nil }

// onlinePrefetcher is the shared Prefetcher wrapper for the online
// engines: annotation validates the options and passes the demand stream
// through unmodified, and NewEngine dispatches on the kind.
type onlinePrefetcher struct{ kind Kind }

func (p onlinePrefetcher) Kind() Kind     { return p.kind }
func (p onlinePrefetcher) String() string { return p.kind.String() }

func (p onlinePrefetcher) AnnotateSource(src trace.Source, opt Options, _ *trace.SharingProfile) (trace.Source, error) {
	if err := opt.Geometry.Validate(); err != nil {
		return nil, err
	}
	if opt.Strategy < NP || opt.Strategy >= NumStrategies {
		return nil, fmt.Errorf("prefetch: bad strategy %d", int(opt.Strategy))
	}
	// Online engines replay the unmodified demand stream; their
	// prefetches are issued at simulation time. Sources are read-only,
	// so the stream passes through as is.
	return src, nil
}

func (p onlinePrefetcher) NewEngine(opt EngineOptions) Engine {
	switch p.kind {
	case Stride:
		return newStrideEngine(opt)
	case Temporal:
		return newTemporalEngine(opt)
	case Pointer:
		return newPointerEngine(opt)
	}
	panic(fmt.Sprintf("prefetch: no engine for %v", p.kind))
}

// pendingCap bounds the recent-emission window the untimely counter scans.
const pendingCap = 64

// track is the bookkeeping every engine embeds: the NP gate, the stats
// block, and a bounded FIFO of recently emitted lines used to detect
// untimely prefetches (a demand miss arriving before the fill).
type track struct {
	opt     EngineOptions
	stats   EngineStats
	pending []memory.Addr
}

// enabled reports whether the engine may emit candidates at all.
func (t *track) enabled() bool { return t.opt.Strategy != NP }

// emit appends c to cand and records the emission for untimely tracking.
func (t *track) emit(cand []Candidate, c Candidate) []Candidate {
	t.stats.Emitted++
	if len(t.pending) >= pendingCap {
		copy(t.pending, t.pending[1:])
		t.pending = t.pending[:len(t.pending)-1]
	}
	t.pending = append(t.pending, c.Line)
	return append(cand, c)
}

// noteFill drops la from the pending window: the prefetch arrived.
func (t *track) noteFill(la memory.Addr) {
	for i, x := range t.pending {
		if x == la {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return
		}
	}
}

// noteMiss scores a demand miss against the pending window: a hit there
// means the engine predicted the line but not early enough.
func (t *track) noteMiss(r Ref) {
	if !r.Miss {
		return
	}
	for i, x := range t.pending {
		if x == r.Line {
			t.stats.Untimely++
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return
		}
	}
}

// Useful implements Engine.Useful.
func (t *track) Useful(memory.Addr) { t.stats.Useful++ }

// Stats implements Engine.Stats.
func (t *track) Stats() EngineStats { return t.stats }
