package prefetch

import (
	"fmt"
	"iter"
	"slices"

	"busprefetch/internal/filter"
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
// is monotone in i (estimated start times strictly increase). So each
// processor's annotator holds one input chunk plus a tail of at most
// distance+1 earlier events, and insertions emerge already in (position,
// target order) order. The batch reference oracle in the package tests
// checks this event by event.
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
	switch {
	case opt.Strategy != PWS && !opt.ExcludeWriteShared:
		prof = nil
	case prof == nil:
		var err error
		if prof, err = trace.AnalyzeSharingSource(src, opt.Geometry); err != nil {
			return nil, err
		}
	}
	return &oracleSource{base: src, opt: opt, prof: prof}, nil
}

// oracleSource streams base with prefetch events inserted on the fly. prof
// is the write-shared line set, nil when the options do not need it; every
// processor's annotator reads it concurrently.
type oracleSource struct {
	base trace.Source
	opt  Options
	prof *trace.SharingProfile
}

func (s *oracleSource) Name() string { return s.base.Name() }

func (s *oracleSource) Procs() int { return s.base.Procs() }

func (s *oracleSource) Events(proc int) iter.Seq[[]trace.Event] {
	return func(yield func([]trace.Event) bool) {
		annotateStreaming(s.base.Events(proc), s.opt, s.prof, yield)
	}
}

// pendingIns is one queued prefetch insertion: emit ev immediately
// before absolute event position at.
type pendingIns struct {
	at int
	ev trace.Event
}

// annSpan is the most events one annotate call takes, a quarter of a
// pooled chunk. It bounds the window's arrays: with the tail they come to
// about 11 KiB per processor at the default distance, 18 KiB at LPD's.
const annSpan = 1024

// annotator is one processor's oracle state between input chunks. The
// window holds the events from position base on that are not yet final:
// the tail carried from earlier chunks, in tail, then the current chunk,
// which is read in place. starts holds the whole window's estimated start
// cycles.
type annotator struct {
	opt     Options
	dist    uint64
	mainF   *filter.Cache
	pwsF    *filter.Cache         // PWS's temporal filter, nil otherwise
	prof    *trace.SharingProfile // write-shared lines, nil when unused
	clock   uint64
	base    int // absolute position of the window's first event
	place   int // monotone placement pointer: last j with starts[j] <= want
	tail    []trace.Event
	starts  []uint64
	ins     []pendingIns // queued insertions, ordered by position
	insHead int          // first insertion not yet emitted
	// out is the stage's one output buffer, from the chunk pool, handed
	// to yield when full; stopped records that yield returned false.
	out     []trace.Event
	yield   func([]trace.Event) bool
	stopped bool
}

// annotateStreaming runs the oracle over one processor's event stream a
// chunk at a time, handing the annotated stream to yield one full output
// buffer at a time. Once yield returns false it takes no more input.
//
// Each chunk (at most annSpan events) takes two passes. The first
// computes its events' estimated start cycles. The second runs them
// through the miss filters and queues a prefetch for each predicted miss
// at the placement pointer, advanced to that miss. The pointer moves only there and at the chunk's last event:
// want and the pointer's bound both rise with the event index, so the
// pointer reaches the same position lazily as it would event by event.
// Once advanced to the chunk's last event, it bounds every later
// placement from below, so the positions before it are final. They are
// emitted once, straight from the input chunk with the queued prefetches
// interleaved, and only the events from the pointer on (at most
// distance+1 of them) are copied into the tail carried to the next chunk.
func annotateStreaming(base iter.Seq[[]trace.Event], opt Options, prof *trace.SharingProfile, yield func([]trace.Event) bool) {
	dist := opt.distance()
	lag := min(int(dist)+1, annSpan) // the tail's bound, at usual distances
	a := &annotator{opt: opt, dist: dist, mainF: filter.NewCache(opt.Geometry), prof: prof,
		tail: make([]trace.Event, 0, lag), starts: make([]uint64, 0, lag+annSpan),
		out: trace.GetChunk(), yield: yield}
	defer trace.PutChunk(a.out)
	if prof != nil && opt.Strategy == PWS {
		a.pwsF = filter.NewCache(filter.PWSGeometry(opt.Geometry.LineSize))
	}
	for chunk := range base {
		// A chunk is taken annSpan events at a time, so a long one (a
		// whole materialized stream) cannot grow the window.
		for len(chunk) > 0 {
			n := min(len(chunk), annSpan)
			a.annotate(chunk[:n])
			chunk = chunk[n:]
			if a.stopped {
				return
			}
		}
	}
	// End of stream: everything left in the window is final.
	a.emit(a.tail, a.base)
	if len(a.out) > 0 {
		a.flush()
	}
}

// annotate takes one chunk of at most annSpan events: it queues the
// chunk's insertions, emits every position that became final and carries
// the rest in the tail.
func (a *annotator) annotate(chunk []trace.Event) {
	first := a.base + len(a.tail) // absolute position of chunk[0]
	n := len(a.starts)
	a.starts = slices.Grow(a.starts, len(chunk))[:n+len(chunk)]
	starts := a.starts[n:]
	clock := a.clock
	for k, e := range chunk {
		starts[k] = clock + uint64(e.Gap)
		clock += uint64(e.Gap) + 1
	}
	a.clock = clock

	dm, direct := a.mainF.Direct()
	pwsF, prof := a.pwsF, a.prof
	exclude := a.opt.ExcludeWriteShared
	excl := a.opt.Strategy == EXCL
	for k, e := range chunk {
		switch e.Kind {
		case trace.Read, trace.Write, trace.Lock, trace.Unlock:
		default:
			continue
		}
		var miss bool
		if direct {
			miss = dm.Access(e.Addr)
		} else {
			miss = a.mainF.Access(e.Addr)
		}
		if !e.Kind.IsDemand() {
			continue // locks occupy the filter but are never prefetched
		}
		wsMiss := pwsF != nil && prof.WriteShared(e.Addr) && pwsF.Access(e.Addr)
		if !miss && !wsMiss || exclude && prof.WriteShared(e.Addr) {
			continue
		}
		kind := trace.Prefetch
		if excl && e.Kind == trace.Write && miss {
			kind = trace.PrefetchExcl
		}
		a.advance(first + k)
		a.ins = append(a.ins, pendingIns{at: a.place, ev: trace.Event{Kind: kind, Addr: e.Addr}})
	}

	// No later event places a prefetch before the pointer at the chunk's
	// last event: positions [base, place) are final.
	a.advance(first + len(chunk) - 1)
	upto := a.place
	if upto <= first {
		a.emit(a.tail[:upto-a.base], a.base)
		kept := copy(a.tail, a.tail[upto-a.base:])
		a.tail = append(a.tail[:kept], chunk...)
	} else {
		a.emit(a.tail, a.base)
		a.emit(chunk[:upto-first], first)
		a.tail = append(a.tail[:0], chunk[upto-first:]...)
	}
	n = copy(a.starts, a.starts[upto-a.base:])
	a.starts = a.starts[:n]
	a.base = upto
	n = copy(a.ins, a.ins[a.insHead:])
	a.ins, a.insHead = a.ins[:n], 0
}

// advance moves the placement pointer to the last position j <= i whose
// start is at least the prefetch distance before event i's. Because
// starts strictly increase, the pointer never moves backward, so the scan
// is amortized O(1) per event.
func (a *annotator) advance(i int) {
	start := a.starts[i-a.base]
	if start <= a.dist {
		return
	}
	want := start - a.dist
	j, starts := a.place, a.starts[a.place-a.base:]
	for j < i && starts[1] <= want {
		j++
		starts = starts[1:]
	}
	a.place = j
}

// emit writes the final events evs, the first at absolute position pos,
// with the queued insertions of their positions before each.
func (a *annotator) emit(evs []trace.Event, pos int) {
	end := pos + len(evs)
	for a.insHead < len(a.ins) && a.ins[a.insHead].at < end {
		in := a.ins[a.insHead]
		a.insHead++
		a.copyOut(evs[:in.at-pos])
		evs, pos = evs[in.at-pos:], in.at
		if len(a.out) == cap(a.out) {
			a.flush()
		}
		a.out = append(a.out, in.ev)
	}
	a.copyOut(evs)
}

// copyOut appends evs to the output, flushing each full buffer.
func (a *annotator) copyOut(evs []trace.Event) {
	for len(evs) > 0 {
		if len(a.out) == cap(a.out) {
			a.flush()
		}
		n := min(len(evs), cap(a.out)-len(a.out))
		a.out = append(a.out, evs[:n]...)
		evs = evs[n:]
	}
}

// flush hands the full output buffer to yield and empties it. After the
// consumer has stopped, the output is dropped.
func (a *annotator) flush() {
	if !a.stopped && !a.yield(a.out) {
		a.stopped = true
	}
	a.out = a.out[:0]
}
