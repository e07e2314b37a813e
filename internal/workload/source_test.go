package workload

import (
	"iter"
	"regexp"
	"runtime"
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/trace"
)

// These tests pin the push contract of trace.Source for the generators
// and the oracle annotator that ranges over them: a consumer that stops
// its range stops every stage below it, a whole-stream drain runs every
// stage on its own goroutine, and a generator's panic reaches the
// drain's caller.

// probeSource passes its base through, counting the chunks the base
// yields and calling each, when set, inside the loop body on every one.
type probeSource struct {
	trace.Source
	each   func()
	chunks int
}

func (s *probeSource) Events(proc int) iter.Seq[[]trace.Event] {
	return func(yield func([]trace.Event) bool) {
		for chunk := range s.Source.Events(proc) {
			s.chunks++
			if s.each != nil {
				s.each()
			}
			if !yield(chunk) {
				return
			}
		}
	}
}

// mp3dSource is mp3d at scale 0.5: twelve streams of a dozen chunks each.
func mp3dSource(t *testing.T) trace.Source {
	t.Helper()
	src, _, err := Mp3d().Source(Params{Scale: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// annotated returns src under the PREF oracle annotator.
func annotated(t *testing.T, src trace.Source) trace.Source {
	t.Helper()
	ann, err := prefetch.AnnotateSource(src, prefetch.Options{Strategy: prefetch.PREF, Geometry: memory.DefaultGeometry()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

// TestBreakStopsProducer: breaking out of a range over a stream after its
// chunk k stops the producer there. A workload stream and an annotated
// mp3d stream have each yielded exactly k chunks when the range statement
// completes, and the annotator took no input after yielding its chunk k.
func TestBreakStopsProducer(t *testing.T) {
	raw := mp3dSource(t)
	for _, k := range []int{1, 3} {
		gen := &probeSource{Source: raw}
		under := &probeSource{Source: raw}
		ann := &probeSource{Source: annotated(t, under)}
		for _, s := range []*probeSource{gen, ann} {
			n, taken := 0, 0
			for range s.Events(0) {
				if n++; n == k {
					taken = under.chunks
					break
				}
			}
			if n != k || s.chunks != k {
				t.Errorf("break after chunk %d: the range saw %d chunks, the producer yielded %d", k, n, s.chunks)
			}
			if s == ann && under.chunks != taken {
				t.Errorf("break after chunk %d: the annotator took %d input chunks, %d of them after the break",
					k, under.chunks, under.chunks-taken)
			}
		}
	}
}

// TestDrainRunsNoGoroutine: a whole-stream drain runs the generator and
// the annotator as ordinary calls on the draining goroutine, so inside the
// loop body of a drain over an annotated source no goroutine is alive that
// was not alive before the drain. It compares goroutine IDs, not counts:
// a goroutine an earlier test left behind may exit during the drain
// without failing it, and one that starts while another exits still fails
// it.
func TestDrainRunsNoGoroutine(t *testing.T) {
	var before map[string]bool
	fresh := map[string]int{} // a goroutine's ID → the first chunk it was alive at
	src := &probeSource{Source: annotated(t, mp3dSource(t))}
	src.each = func() {
		for id := range goroutineIDs() {
			if _, seen := fresh[id]; !before[id] && !seen {
				fresh[id] = src.chunks
			}
		}
	}
	before = goroutineIDs()
	if _, _, err := trace.CountEvents(src); err != nil {
		t.Fatal(err)
	}
	if src.chunks < src.Procs() {
		t.Fatalf("the drain saw %d chunks from %d streams", src.chunks, src.Procs())
	}
	for id, chunk := range fresh {
		t.Errorf("goroutine %s is alive inside the drain at chunk %d but was not before it", id, chunk)
	}
}

// goroutineHeader matches the first line of each goroutine's stack, which
// carries its ID.
var goroutineHeader = regexp.MustCompile(`(?m)^goroutine (\d+) `)

// goroutineIDs returns the IDs of every live goroutine.
func goroutineIDs() map[string]bool {
	buf := make([]byte, 64<<10)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, m := range goroutineHeader.FindAllSubmatch(buf, -1) {
		ids[string(m[1])] = true
	}
	return ids
}

// faultPlan emits 10000 reads per processor; processor 1 panics with
// "kernel fault" in place of its read 5000, after its first chunk.
type faultPlan struct{}

func (faultPlan) emit(proc int, b *builder) {
	for i := 0; i < 10000; i++ {
		if proc == 1 && i == 5000 {
			panic("kernel fault")
		}
		b.Instr(3)
		b.Read(memory.Addr(64 * i))
	}
}

// TestProducerPanicReachesDrain: a generator that panics under the
// annotator, inside a whole-stream drain, panics the drain's caller with
// its value; the generator's own stop recovery does not swallow it.
func TestProducerPanicReachesDrain(t *testing.T) {
	src := annotated(t, &workloadSource{name: "fault", procs: 2, plan: faultPlan{}})
	v := func() (v any) {
		defer func() { v = recover() }()
		trace.CountEvents(src)
		return nil
	}()
	if v != "kernel fault" {
		t.Fatalf("drain over a panicking generator recovered %v, want kernel fault", v)
	}
}
