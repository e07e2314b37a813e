package prefetch

import (
	"fmt"
	"sync"
	"testing"

	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// TestAnnotateSourceSharesProfileConcurrently drains PWS and
// ExcludeWriteShared annotations over one sharing profile from several
// goroutines at once, each draining every processor concurrently, as suite
// cells and an annotated source's processors do. Each drain must equal a
// sequential one; under -race this also shows that no query writes to the
// profile.
func TestAnnotateSourceSharesProfileConcurrently(t *testing.T) {
	w, err := workload.ByName("pverify")
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := w.Source(workload.Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := trace.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.AnalyzeSharingSource(trace.FromTrace(base), geom())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Options{
		{Strategy: PWS, Geometry: geom()},
		{Strategy: PREF, Geometry: geom(), ExcludeWriteShared: true},
	}
	const drains = 3
	want := make([]*trace.Trace, len(opts))
	got := make([][drains]*trace.Trace, len(opts))
	var wg sync.WaitGroup
	for i, opt := range opts {
		ann, err := AnnotateSource(trace.FromTrace(base), opt, prof)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = trace.Materialize(ann); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < drains; d++ {
			wg.Add(1)
			go func(i, d int) {
				defer wg.Done()
				got[i][d] = drainConcurrently(ann)
			}(i, d)
		}
	}
	wg.Wait()
	for i := range opts {
		for d := 0; d < drains; d++ {
			diffTraces(t, fmt.Sprintf("%v exclude=%v drain %d", opts[i].Strategy, opts[i].ExcludeWriteShared, d), got[i][d], want[i])
		}
	}
}

// drainConcurrently materializes src with every processor's stream drained
// on its own goroutine.
func drainConcurrently(src trace.Source) *trace.Trace {
	tr := &trace.Trace{Name: src.Name(), Streams: make([]trace.Stream, src.Procs())}
	var wg sync.WaitGroup
	for p := range tr.Streams {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for chunk := range src.Events(p) {
				tr.Streams[p] = append(tr.Streams[p], chunk...)
			}
		}(p)
	}
	wg.Wait()
	return tr
}
