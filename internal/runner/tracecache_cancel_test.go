package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// TestTraceCacheWaiterCancellation: a waiter blocked on someone else's
// in-flight generation must bail with its own ctx.Err() when cancelled, while
// the generation completes normally for everyone still interested.
func TestTraceCacheWaiterCancellation(t *testing.T) {
	c := NewTraceCache()
	k := testKey("water", false)
	genStarted := make(chan struct{})
	genRelease := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetSource(context.Background(), k, func() (trace.Source, workload.Info, error) {
			close(genStarted)
			<-genRelease
			return generate("water", false)()
		})
		if err != nil {
			t.Errorf("generator GetSource: %v", err)
		}
	}()
	<-genStarted
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetSource(ctx, k, generate("water", false))
		waiterErr <- err
	}()
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(genRelease)
	wg.Wait()
	// The entry completed despite the waiter's cancellation: a fresh caller
	// hits it without regenerating.
	var regen atomic.Int64
	if _, _, err := c.GetSource(context.Background(), k, func() (trace.Source, workload.Info, error) {
		regen.Add(1)
		return generate("water", false)()
	}); err != nil {
		t.Fatal(err)
	}
	if regen.Load() != 0 {
		t.Error("completed entry regenerated after a waiter was cancelled")
	}
}

// TestTraceCacheCancelledGenerationNotPoisoned is the singleflight-poisoning
// regression test: when the generating caller's context dies mid-generation,
// the memoized entry must NOT pin that cancellation forever — the next caller
// regenerates and succeeds.
func TestTraceCacheCancelledGenerationNotPoisoned(t *testing.T) {
	c := NewTraceCache()
	k := testKey("mp3d", false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetSource(ctx, k, func() (trace.Source, workload.Info, error) {
		// A well-behaved generator notices its caller's dead context.
		return nil, workload.Info{}, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first GetSource = %v, want context.Canceled", err)
	}
	// The poisoned entry was evicted: a healthy caller regenerates.
	tr, _, err := c.GetSource(context.Background(), k, generate("mp3d", false))
	if err != nil {
		t.Fatalf("GetSource after cancelled generation: %v", err)
	}
	if tr == nil {
		t.Fatal("nil source from regeneration")
	}
}

// TestTraceCacheConcurrentCancellationStorm hammers one key with a mix of
// cancelled and healthy callers under the race detector. A healthy waiter
// that was already parked on a cancelled caller's in-flight generation may
// transiently observe that cancellation, but the entry is evicted, so its
// retry must succeed — no caller's dead context becomes a permanent failure.
func TestTraceCacheConcurrentCancellationStorm(t *testing.T) {
	c := NewTraceCache()
	k := testKey("water", true)
	const goroutines = 24
	var wg sync.WaitGroup
	var badErr atomic.Value
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				cancel()
			}
			gen := func() (trace.Source, workload.Info, error) {
				if err := ctx.Err(); err != nil {
					return nil, workload.Info{}, err
				}
				return generate("water", true)()
			}
			if i%3 == 0 {
				c.GetSource(ctx, k, gen) // cancelled callers may get ctx.Err() or a source; both are fine
				return
			}
			for attempt := 0; ; attempt++ {
				tr, _, err := c.GetSource(ctx, k, gen)
				if err == nil && tr != nil {
					return
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					badErr.Store(err)
					return
				}
				if attempt >= goroutines {
					badErr.Store(errors.New("healthy caller never converged past neighbours' cancellations"))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := badErr.Load(); err != nil {
		t.Fatalf("healthy caller failed: %v", err)
	}
	// The cache converged: one final GetSource is a pure hit.
	var regen atomic.Int64
	if _, _, err := c.GetSource(context.Background(), k, func() (trace.Source, workload.Info, error) {
		regen.Add(1)
		return generate("water", true)()
	}); err != nil {
		t.Fatal(err)
	}
	if regen.Load() != 0 {
		t.Error("cache did not converge to a completed entry")
	}
}
