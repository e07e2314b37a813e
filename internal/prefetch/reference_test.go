package prefetch

import (
	"fmt"
	"iter"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"busprefetch/internal/filter"
	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// referenceAnnotate is the batch form of the oracle annotator: it returns a
// copy of t with prefetch instructions inserted according to the options,
// working on whole materialized streams with an explicit sort. It shares no
// windowing or streaming code with AnnotateSource, the annotator that
// ships, and serves as its reference oracle. With Strategy NP the trace is
// cloned unchanged.
func referenceAnnotate(t *trace.Trace, opt Options) (*trace.Trace, error) {
	if err := opt.Geometry.Validate(); err != nil {
		return nil, err
	}
	if opt.Strategy < NP || opt.Strategy >= NumStrategies {
		return nil, fmt.Errorf("prefetch: bad strategy %d", int(opt.Strategy))
	}
	if opt.Strategy == NP {
		return t.Clone(), nil
	}
	out := &trace.Trace{Name: t.Name, Streams: make([]trace.Stream, t.Procs())}

	if opt.ExcludeWriteShared && opt.Strategy == PWS {
		return nil, fmt.Errorf("prefetch: ExcludeWriteShared contradicts PWS")
	}

	// PWS needs the global write-shared line set, which only the whole
	// trace reveals — the stand-in for the compiler's knowledge of which
	// data structures are write-shared. ExcludeWriteShared needs the same
	// set to suppress those lines instead.
	var isWS func(memory.Addr) bool
	if opt.Strategy == PWS || opt.ExcludeWriteShared {
		isWS = writeSharedSet(t, opt.Geometry)
	}

	for p, s := range t.Streams {
		out.Streams[p] = annotateStream(s, opt, isWS)
	}
	return out, nil
}

// writeSharedSet is the reference's own whole-trace write-shared line set,
// built in a plain map rather than with trace.AnalyzeSharingSource, so that
// a fault in the shipping sharing table cannot hide in both sides of a
// comparison. A line is write-shared when some processor writes it (a lock
// or unlock is a read-modify-write) and at least two processors touch it.
func writeSharedSet(t *trace.Trace, geom memory.Geometry) func(memory.Addr) bool {
	type use struct{ readers, writers uint64 }
	lines := map[uint64]use{}
	for p, s := range t.Streams {
		for _, e := range s {
			l := uint64(e.Addr) / uint64(geom.LineSize)
			u := lines[l]
			switch e.Kind {
			case trace.Read:
				u.readers |= 1 << p
			case trace.Write, trace.Lock, trace.Unlock:
				u.writers |= 1 << p
			default:
				continue
			}
			lines[l] = u
		}
	}
	ws := map[uint64]bool{}
	for l, u := range lines {
		if u.writers != 0 && bits.OnesCount64(u.readers|u.writers) >= 2 {
			ws[l] = true
		}
	}
	return func(a memory.Addr) bool { return ws[uint64(a)/uint64(geom.LineSize)] }
}

// insertion is one prefetch to place immediately before event index at.
type insertion struct {
	at  int
	ev  trace.Event
	seq int
}

func annotateStream(s trace.Stream, opt Options, isWS func(memory.Addr) bool) trace.Stream {
	miss := filter.MarkMisses(s, opt.Geometry)
	var wsMiss []bool
	if isWS != nil && opt.Strategy == PWS {
		wsMiss = filter.MarkWriteSharedMisses(s, opt.Geometry, isWS)
	}

	// start[i] is the estimated CPU cycle at which event i begins, assuming
	// every access hits: Gap instruction cycles precede it, and each prior
	// event costs Gap+1.
	start := make([]uint64, len(s)+1)
	var clock uint64
	for i, e := range s {
		start[i] = clock + uint64(e.Gap)
		clock += uint64(e.Gap) + 1
	}
	start[len(s)] = clock

	dist := opt.distance()
	var ins []insertion
	for i, e := range s {
		wantPref := miss[i] || (wsMiss != nil && wsMiss[i])
		if !wantPref || !e.Kind.IsDemand() {
			continue
		}
		if opt.ExcludeWriteShared && isWS != nil && isWS(e.Addr) {
			continue
		}
		kind := trace.Prefetch
		if opt.Strategy == EXCL && e.Kind == trace.Write && miss[i] {
			kind = trace.PrefetchExcl
		}
		at := placeBefore(start, i, dist)
		ins = append(ins, insertion{at: at, ev: trace.Event{Kind: kind, Addr: e.Addr}, seq: len(ins)})
	}
	if len(ins) == 0 {
		return append(trace.Stream(nil), s...)
	}
	// Keep insertions ordered by position, then by the order of their
	// target accesses, so earlier-needed data is requested first.
	sort.Slice(ins, func(a, b int) bool {
		if ins[a].at != ins[b].at {
			return ins[a].at < ins[b].at
		}
		return ins[a].seq < ins[b].seq
	})

	outLen := len(s) + len(ins)
	out := make(trace.Stream, 0, outLen)
	k := 0
	for i, e := range s {
		for k < len(ins) && ins[k].at == i {
			out = append(out, ins[k].ev)
			k++
		}
		out = append(out, e)
	}
	for k < len(ins) {
		out = append(out, ins[k].ev)
		k++
	}
	return out
}

// placeBefore returns the largest event index j <= i such that the estimated
// cycles between the start of event j and the start of event i are at least
// dist — the latest insertion point that still hides dist cycles. It returns
// 0 when the stream's beginning is closer than dist.
func placeBefore(start []uint64, i int, dist uint64) int {
	target := start[i]
	if target <= dist {
		return 0
	}
	want := target - dist
	// Binary search for the last j with start[j] <= want.
	lo, hi := 0, i
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if start[mid] <= want {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// TestAnnotateSourceMatchesReference compares the shipping streamed
// annotator with the batch reference event by event, over every workload
// and every option that changes where or what the oracle inserts. Each
// variant runs with the sharing profile computed on demand, with it
// precomputed (the way the suite's trace cache supplies it), and over the
// same streams in random chunk lengths: where the input's chunks end must
// not move an insertion.
func TestAnnotateSourceMatchesReference(t *testing.T) {
	twoWay := memory.Geometry{CacheSize: 32 * 1024, LineSize: 32, Assoc: 2}
	type variant struct {
		name string
		opt  Options
	}
	var variants []variant
	for _, st := range Strategies() {
		variants = append(variants, variant{st.String(), Options{Strategy: st, Geometry: geom()}})
	}
	variants = append(variants,
		variant{"PREF/exclude-write-shared", Options{Strategy: PREF, Geometry: geom(), ExcludeWriteShared: true}},
		variant{"PREF/2-way-32KB", Options{Strategy: PREF, Geometry: twoWay}},
		variant{"PREF/distance-25", Options{Strategy: PREF, Geometry: geom(), Distance: 25}},
		variant{"PREF/distance-800", Options{Strategy: PREF, Geometry: geom(), Distance: 800}},
	)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			src, _, err := w.Source(workload.Params{Scale: 0.05, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			base, err := trace.Materialize(src)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range variants {
				want, err := referenceAnnotate(base, v.opt)
				if err != nil {
					t.Fatalf("%s: reference: %v", v.name, err)
				}
				prof, err := trace.AnalyzeSharingSource(src, v.opt.Geometry)
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range []struct {
					label string
					src   trace.Source
					prof  *trace.SharingProfile
				}{
					{"profile computed on demand", src, nil},
					{"precomputed profile", src, prof},
					{"random chunk lengths", rechunked{base, int64(i)}, nil},
				} {
					label := fmt.Sprintf("%s (%s)", v.name, in.label)
					ann, err := AnnotateSource(in.src, v.opt, in.prof)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got, err := trace.Materialize(ann)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					diffTraces(t, label, got, want)
				}
			}
		})
	}
}

// rechunked serves a materialized trace in chunks of random length: a few
// events, about one prefetch distance, or more than the annotator takes in
// one pass. So the annotator's window meets chunks shorter than the tail it
// carries, chunks that end inside that tail, and chunks it must split.
type rechunked struct {
	t    *trace.Trace
	seed int64
}

func (s rechunked) Name() string { return s.t.Name }

func (s rechunked) Procs() int { return s.t.Procs() }

func (s rechunked) Events(proc int) iter.Seq[[]trace.Event] {
	return func(yield func([]trace.Event) bool) {
		st, rng := s.t.Streams[proc], rand.New(rand.NewSource(s.seed+int64(proc)))
		for len(st) > 0 {
			var n int
			switch rng.Intn(3) {
			case 0:
				n = 1 + rng.Intn(8)
			case 1:
				n = 50 + rng.Intn(500)
			default:
				n = annSpan - 100 + rng.Intn(2*annSpan)
			}
			n = min(n, len(st))
			if !yield(st[:n]) {
				return
			}
			st = st[n:]
		}
	}
}

// diffTraces reports the first event at which got and want diverge.
func diffTraces(t *testing.T, label string, got, want *trace.Trace) {
	t.Helper()
	if got.Name != want.Name || got.Procs() != want.Procs() {
		t.Fatalf("%s: header (%q, %d procs), want (%q, %d procs)", label, got.Name, got.Procs(), want.Name, want.Procs())
	}
	for p := range want.Streams {
		g, w := got.Streams[p], want.Streams[p]
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: proc %d event %d is %v, reference has %v", label, p, i, g[i], w[i])
			}
		}
		if len(g) != len(w) {
			t.Fatalf("%s: proc %d has %d events, reference has %d", label, p, len(g), len(w))
		}
	}
}
