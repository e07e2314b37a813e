package prefetch

import (
	"fmt"

	"busprefetch/internal/filter"
	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

// AnnotateSource is the paper's offline oracle annotator: it returns a
// Source whose streams carry src's events with prefetch instructions
// inserted according to the options, without materializing either the
// input or the output.
//
// A uniprocessor filter cache of opt.Geometry predicts each processor's
// misses; each predicted demand miss gets a prefetch for its address,
// placed at the latest event that still starts at least the prefetch
// distance earlier in estimated CPU cycles (every event costs Gap+1
// cycles, as if every access hit). Prefetches that land at the same
// position keep the order of their target accesses, so earlier-needed
// data is requested first.
//
// The algorithm needs bounded lookback, not whole-stream access: an
// insertion for event i lands at most `distance` events earlier (every
// event costs at least one estimated cycle), and the landing position
// is monotone in i (estimated start times strictly increase). So a
// sliding window of the last ~distance events suffices, and insertions
// emerge already in (position, target order) order. The batch
// reference oracle in the package tests checks this event by event.
//
// PWS and ExcludeWriteShared need the whole-trace write-shared line
// set — the stand-in for the compiler's knowledge of which data
// structures are write-shared. When prof is non-nil it is used directly
// (it must have been computed with opt.Geometry — callers memoize it per
// trace and geometry); otherwise a streaming pre-pass drains src once to
// compute it.
//
// With Strategy NP src itself is returned: sources are read-only.
func AnnotateSource(src trace.Source, opt Options, prof *trace.SharingProfile) (trace.Source, error) {
	if err := opt.Geometry.Validate(); err != nil {
		return nil, err
	}
	if opt.Strategy < NP || opt.Strategy >= NumStrategies {
		return nil, fmt.Errorf("prefetch: bad strategy %d", int(opt.Strategy))
	}
	if opt.Strategy == NP {
		return src, nil
	}
	if opt.ExcludeWriteShared && opt.Strategy == PWS {
		return nil, fmt.Errorf("prefetch: ExcludeWriteShared contradicts PWS")
	}
	var isWS func(memory.Addr) bool
	if opt.Strategy == PWS || opt.ExcludeWriteShared {
		if prof == nil {
			var err error
			prof, err = trace.AnalyzeSharingSource(src, opt.Geometry)
			if err != nil {
				return nil, err
			}
		}
		isWS = prof.WriteShared
	}
	return &oracleSource{base: src, opt: opt, isWS: isWS}, nil
}

// oracleSource streams base with prefetch events inserted on the fly.
type oracleSource struct {
	base trace.Source
	opt  Options
	isWS func(memory.Addr) bool
}

func (s *oracleSource) Name() string { return s.base.Name() }

func (s *oracleSource) Procs() int { return s.base.Procs() }

func (s *oracleSource) Events(proc int) trace.Iterator {
	base := s.base.Events(proc)
	return trace.NewPipe(func(flush func([]trace.Event) []trace.Event) error {
		defer base.Close()
		return annotateStreaming(base, s.opt, s.isWS, flush)
	})
}

// annRing is a growable power-of-two ring buffer holding the
// not-yet-final window of events. Events and their estimated start cycles
// live in parallel arrays: the monotone placement scan touches only
// starts, and final events bulk-copy straight out of the event array.
type annRing struct {
	evs    []trace.Event
	starts []uint64
	head   int
	n      int
}

func newAnnRing() *annRing {
	return &annRing{evs: make([]trace.Event, 512), starts: make([]uint64, 512)}
}

// push appends without a capacity check: the caller tests fullness and
// reserve()s first, which keeps push small enough to inline in the
// per-event loop.
func (r *annRing) push(ev trace.Event, start uint64) {
	i := (r.head + r.n) & (len(r.evs) - 1)
	r.evs[i] = ev
	r.starts[i] = start
	r.n++
}

// reserve grows the ring until it can hold n entries.
func (r *annRing) reserve(n int) {
	for n > len(r.evs) {
		evs := make([]trace.Event, len(r.evs)*2)
		starts := make([]uint64, len(r.starts)*2)
		mask := len(r.evs) - 1
		for i := 0; i < r.n; i++ {
			evs[i] = r.evs[(r.head+i)&mask]
			starts[i] = r.starts[(r.head+i)&mask]
		}
		r.evs, r.starts, r.head = evs, starts, 0
	}
}

func (r *annRing) popEv() trace.Event {
	ev := r.evs[r.head]
	r.head = (r.head + 1) & (len(r.evs) - 1)
	r.n--
	return ev
}

func (r *annRing) startAt(i int) uint64 { return r.starts[(r.head+i)&(len(r.starts)-1)] }

// pendingIns is one queued prefetch insertion: emit ev immediately
// before absolute event position at.
type pendingIns struct {
	at int
	ev trace.Event
}

// annEmitBatch is how many final window positions accumulate before they
// are emitted. Batching keeps the bulk-copy spans long; the window then
// holds at most annEmitBatch + distance events, still comfortably inside
// the ring's initial capacity.
const annEmitBatch = 256

// annotateStreaming runs the oracle over one processor's event stream
// with an incremental miss filter and a bounded window, emitting the
// annotated stream through flush.
func annotateStreaming(base trace.Iterator, opt Options, isWS func(memory.Addr) bool, flush func([]trace.Event) []trace.Event) error {
	mainF := filter.NewCache(opt.Geometry)
	var pwsF *filter.Cache
	if isWS != nil && opt.Strategy == PWS {
		pwsF = filter.NewCache(filter.PWSGeometry(opt.Geometry.LineSize))
	}
	dist := opt.distance()

	out := flush(nil)
	emit := func(e trace.Event) {
		if len(out) == cap(out) {
			out = flush(out)
		}
		out = append(out, e)
	}

	win := newAnnRing()
	var insq []pendingIns
	insHead := 0
	var clock uint64
	idx := 0     // absolute index of the event being processed
	flushed := 0 // absolute index of the first not-yet-emitted position
	place := 0   // monotone placement pointer: last j with start[j] <= want

	// emitRun pops k final window events, bulk-copying contiguous ring
	// spans — the common case between insertion positions.
	emitRun := func(k int) {
		for k > 0 {
			run := len(win.evs) - win.head
			if run > win.n {
				run = win.n
			}
			if run > k {
				run = k
			}
			space := cap(out) - len(out)
			if space == 0 {
				out = flush(out)
				space = cap(out) - len(out)
			}
			if run > space {
				run = space
			}
			out = append(out, win.evs[win.head:win.head+run]...)
			win.head = (win.head + run) & (len(win.evs) - 1)
			win.n -= run
			k -= run
		}
	}
	// emitFinal emits queued insertions and window events for positions
	// [flushed, upto).
	emitFinal := func(upto int) {
		for flushed < upto {
			// Bulk-copy the insertion-free span up to the next queued
			// insertion position.
			next := upto
			if insHead < len(insq) && insq[insHead].at < next {
				next = insq[insHead].at
			}
			if next > flushed {
				emitRun(next - flushed)
				flushed = next
				continue
			}
			for insHead < len(insq) && insq[insHead].at == flushed {
				emit(insq[insHead].ev)
				insHead++
			}
			emit(win.popEv())
			flushed++
		}
	}

	for {
		chunk, err := base.Next()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		for _, e := range chunk {
			start := clock + uint64(e.Gap)
			clock += uint64(e.Gap) + 1
			if win.n == len(win.evs) {
				win.reserve(win.n + 1)
			}
			win.push(e, start)

			var miss, wsMiss bool
			if e.Kind <= trace.Write { // Read or Write
				miss = mainF.Access(e.Addr)
			} else if e.Kind == trace.Lock || e.Kind == trace.Unlock {
				mainF.Access(e.Addr)
			}
			if pwsF != nil && e.Kind.IsDemand() && isWS(e.Addr) {
				wsMiss = pwsF.Access(e.Addr)
			}

			// Advance the monotone insertion pointer. Because start
			// strictly increases, want does too, so the pointer never
			// moves backward — this loop is amortized O(1) per event.
			if start > dist {
				want := start - dist
				for place < idx && win.startAt(place+1-flushed) <= want {
					place++
				}
			}
			// Positions before the pointer can never receive another
			// insertion (future events place at or after it): they are
			// final. Emitting them is deferred until a batch has
			// accumulated so emitRun copies long spans instead of
			// single events.
			if place-flushed >= annEmitBatch {
				emitFinal(place)
				if insHead == len(insq) {
					insq, insHead = insq[:0], 0
				} else if insHead >= 1024 {
					// Compact the consumed prefix so the queue stays
					// window-sized even when it never fully drains.
					n := copy(insq, insq[insHead:])
					insq, insHead = insq[:n], 0
				}
			}

			wantPref := miss || wsMiss
			if wantPref && e.Kind.IsDemand() && !(opt.ExcludeWriteShared && isWS != nil && isWS(e.Addr)) {
				kind := trace.Prefetch
				if opt.Strategy == EXCL && e.Kind == trace.Write && miss {
					kind = trace.PrefetchExcl
				}
				insq = append(insq, pendingIns{at: place, ev: trace.Event{Kind: kind, Addr: e.Addr}})
			}
			idx++
		}
	}
	// End of stream: everything left in the window is final.
	emitFinal(idx)
	flush(out)
	return nil
}
