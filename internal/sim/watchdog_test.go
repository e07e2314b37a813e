package sim

import (
	"context"
	"errors"
	"iter"
	"strings"
	"sync/atomic"
	"testing"

	"busprefetch/internal/check"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

func watchdogSim(t *testing.T) *simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 100
	s, err := newSimulator(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.procs[0].stream = trace.Stream{{Kind: trace.Read, Addr: 0x1000}}
	return s
}

func TestWatchdogNoProgressTrips(t *testing.T) {
	s := watchdogSim(t)
	if err := s.watch(0); err != nil {
		t.Fatalf("watch tripped immediately: %v", err)
	}
	// Progress resets the clock.
	s.progress++
	if err := s.watch(50); err != nil {
		t.Fatalf("watch tripped on progress: %v", err)
	}
	if err := s.watch(140); err != nil {
		t.Fatalf("watch tripped within threshold: %v", err)
	}
	err := s.watch(151) // 101 cycles past the last progress at 50
	if err == nil {
		t.Fatal("watchdog did not trip after the threshold")
	}
	var stall *check.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error is %T, want *check.StallError", err)
	}
	if !strings.Contains(stall.Reason, "no progress") {
		t.Errorf("reason = %q", stall.Reason)
	}
	// Once tripped, the error is sticky.
	if err2 := s.watch(152); err2 != err {
		t.Errorf("watch after trip = %v, want the same error", err2)
	}
}

func TestWatchdogLivelockTrips(t *testing.T) {
	s := watchdogSim(t)
	s.progress++
	if err := s.watch(10); err != nil {
		t.Fatal(err)
	}
	// Same-cycle events churning without progress: the event-count limit
	// catches what the cycle threshold cannot.
	s.eventsSinceProgress = watchdogEventLimit
	err := s.watch(10)
	if err == nil {
		t.Fatal("livelock limit did not trip")
	}
	var stall *check.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error is %T, want *check.StallError", err)
	}
	if !strings.Contains(stall.Reason, "livelock") {
		t.Errorf("reason = %q", stall.Reason)
	}
}

func TestWatchdogDefaultThreshold(t *testing.T) {
	cfg := DefaultConfig()
	s, err := newSimulator(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.watchdogCycles != defaultWatchdogCycles {
		t.Errorf("watchdogCycles = %d, want default %d", s.watchdogCycles, uint64(defaultWatchdogCycles))
	}
	// Huge instruction gaps must not trip the default watchdog: a gap is one
	// event that itself counts as progress (see proc.run).
	big := &trace.Trace{Streams: []trace.Stream{
		{{Kind: trace.Read, Addr: 0x1000, Gap: 1 << 24}, {Kind: trace.Read, Addr: 0x2000, Gap: 1 << 24}},
	}}
	if _, err := RunSource(cfg, trace.FromTrace(big)); err != nil {
		t.Errorf("huge-gap trace tripped the watchdog: %v", err)
	}
}

func TestFailKeepsFirstError(t *testing.T) {
	s := watchdogSim(t)
	first := errors.New("first")
	s.fail(first)
	s.fail(errors.New("second"))
	if s.err != first {
		t.Errorf("err = %v, want the first failure", s.err)
	}
	s2 := watchdogSim(t)
	s2.fail(nil)
	if s2.err != nil {
		t.Errorf("fail(nil) recorded %v", s2.err)
	}
}

// pollCtx is a context whose Err reports context.Canceled from its failAt-th
// call on. Each call records how many chunks the run had pulled by then.
type pollCtx struct {
	context.Context
	failAt int
	pulled *atomic.Int64
	calls  []int64
}

func (c *pollCtx) Err() error {
	c.calls = append(c.calls, c.pulled.Load())
	if len(c.calls) >= c.failAt {
		return context.Canceled
	}
	return nil
}

// countingSource counts the chunks its streams yield and records which
// streams' sequences have returned. The simulator ranges over each stream
// on its own read-ahead goroutine, so the chunk count is shared between
// them; each returned flag belongs to one.
type countingSource struct {
	trace.Source
	pulled   atomic.Int64
	returned []bool
}

func (c *countingSource) Events(proc int) iter.Seq[[]trace.Event] {
	return func(yield func([]trace.Event) bool) {
		defer func() { c.returned[proc] = true }()
		for chunk := range c.Source.Events(proc) {
			c.pulled.Add(1)
			if !yield(chunk) {
				return
			}
		}
	}
}

// TestRunSourceContextAbortsAtPoll: a run doing progress-bearing work stops
// at the first cancellation poll that finds its context done, with an error
// wrapping the context's, and every stream's sequence has returned when it
// does. The context is consulted only by the dispatch loop's poll.
func TestRunSourceContextAbortsAtPoll(t *testing.T) {
	w, err := workload.ByName("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	inner, _, err := w.Source(workload.Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: inner, returned: make([]bool, inner.Procs())}
	const failAt = 6
	ctx := &pollCtx{Context: context.Background(), failAt: failAt, pulled: &src.pulled}
	_, err = RunSourceContext(ctx, DefaultConfig(), src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run under a context cancelled at poll %d returned %v, want context.Canceled", failAt, err)
	}
	if len(ctx.calls) != failAt {
		t.Errorf("Err called %d times, want %d: the run must stop at the first poll that sees the cancellation", len(ctx.calls), failAt)
	}
	if len(ctx.calls) > 0 && ctx.calls[0] == 0 {
		t.Error("Err called before the run pulled any events; only the dispatch loop's poll may consult the context")
	}
	if len(src.returned) != 12 {
		t.Fatalf("mp3d source has %d processors, want 12", len(src.returned))
	}
	for p, ok := range src.returned {
		if !ok {
			t.Errorf("stream %d's sequence had not returned when the run did", p)
		}
	}
}
