package sim

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// lifetimeSource is mp3d at scale 0.2 under the PREF annotator: twelve
// streams of several chunks each, every one a generator loop nested in
// the annotator's loop.
func lifetimeSource(t *testing.T) trace.Source {
	t.Helper()
	w, err := workload.ByName("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := w.Source(workload.Params{Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ann, err := prefetch.AnnotateSource(src, prefetch.Options{Strategy: prefetch.PREF, Geometry: memory.DefaultGeometry()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

// faultSource passes its base through, except that event at of processor
// proc's stream first goes through fault, which may rewrite it or panic.
type faultSource struct {
	trace.Source
	proc, at int
	fault    func(*trace.Event)
}

func (s *faultSource) Events(proc int) iter.Seq[[]trace.Event] {
	return func(yield func([]trace.Event) bool) {
		var buf []trace.Event
		n := 0
		for chunk := range s.Source.Events(proc) {
			buf = append(buf[:0], chunk...)
			for i := range buf {
				if proc == s.proc && n == s.at {
					s.fault(&buf[i])
				}
				n++
			}
			if !yield(buf) {
				return
			}
		}
	}
}

// waitGoroutines polls until at most want goroutines are left, failing
// with every goroutine's stack if that takes longer than a few seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left after the run, want at most %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestRunSourceLeavesNoGoroutines pins RunSourceContext's promise that no
// producer outlives the run: after a completed run, a run cancelled
// mid-stream and a run aborted mid-stream by inline validation, the
// goroutine count is back where it started.
func TestRunSourceLeavesNoGoroutines(t *testing.T) {
	src := lifetimeSource(t)
	cases := []struct {
		name string
		ctx  context.Context
		src  trace.Source
		want string // a substring of the run's error; "" for success
	}{
		{"completed", context.Background(), src, ""},
		{"cancelled", &pollCtx{Context: context.Background(), failAt: 6, pulled: new(atomic.Int64)}, src, "canceled"},
		{"invalid", context.Background(), &faultSource{Source: src, proc: 1, at: 3000,
			fault: func(e *trace.Event) { e.Kind = trace.Kind(250) }}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := RunSourceContext(tc.ctx, DefaultConfig(), tc.src)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("run failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("run returned %v, want an error mentioning %q", err, tc.want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestProducerPanicFailsTheTask: a producer that panics mid-stream on a
// read-ahead goroutine fails the run, not the process. The panic reaches
// the simulator's goroutine, so a runner.Pool task running the simulation
// returns a *runner.PanicError carrying the producer's value, and no
// goroutine of the run is left behind.
func TestProducerPanicFailsTheTask(t *testing.T) {
	src := &faultSource{Source: lifetimeSource(t), proc: 1, at: 3000,
		fault: func(*trace.Event) { panic("producer fault") }}
	base := runtime.NumGoroutine()
	errs, _ := runner.NewPool(1).Do(context.Background(), []runner.Task{{
		Label: "panicking producer",
		Run: func(ctx context.Context) error {
			_, err := RunSourceContext(ctx, DefaultConfig(), src)
			return err
		},
	}}, nil)
	var pe *runner.PanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("task returned %v, want a *runner.PanicError", errs[0])
	}
	if pe.Value != "producer fault" {
		t.Errorf("panic value = %v, want the producer's", pe.Value)
	}
	waitGoroutines(t, base)
}
