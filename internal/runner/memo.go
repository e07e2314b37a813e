package runner

import (
	"context"
	"errors"
	"sync"
)

// Memo is a concurrent memo with singleflight semantics, the one
// implementation behind the trace cache, the result store and the
// experiment suite's cell memo. The first caller to ask for a key runs
// compute while later callers wait on the same flight, so a key is never
// computed twice at once, and every caller of a flight observes its
// outcome.
//
// Which outcomes are memoized is the owner's rule: compute reports it
// alongside the outcome, and a flight that may not be kept is forgotten
// before its waiters are released, so the next caller computes afresh. A
// compute that panics is forgotten too: its waiters get an error and the
// panic continues up the computing goroutine. The zero Memo is ready to
// use.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
}

// flight is one memo entry; done is closed once v and err are final.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns k's outcome, running compute on the calling goroutine when the
// memo holds no entry for k. hit reports whether the call joined an
// existing entry, completed or in flight, instead of computing. A waiter
// whose ctx is done returns ctx.Err() at once while the flight continues
// for everyone else. compute's keep result says whether its outcome may be
// memoized.
func (m *Memo[K, V]) Do(ctx context.Context, k K, compute func() (v V, keep bool, err error)) (v V, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	if f, ok := m.flights[k]; ok {
		m.mu.Unlock()
		select {
		case <-f.done:
			return f.v, true, f.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	if m.flights == nil {
		m.flights = make(map[K]*flight[V])
	}
	// Until compute returns, the flight reads as panicked, so the deferred
	// release hands waiters an error if compute panics instead.
	f := &flight[V]{done: make(chan struct{}), err: errComputePanicked}
	m.flights[k] = f
	m.mu.Unlock()

	keep := false
	defer func() {
		if !keep {
			m.mu.Lock()
			if m.flights[k] == f {
				delete(m.flights, k)
			}
			m.mu.Unlock()
		}
		close(f.done)
	}()
	f.v, keep, f.err = compute()
	return f.v, false, f.err
}

// Peek returns k's outcome when the memo holds a completed entry for it. It
// never waits and never computes: ok is false while k's flight is still
// running, and for a key with no entry, which includes an outcome that was
// not kept. A kept flight is closed while it is still in the map, and a
// dropped one leaves the map before it closes, so checking under the lock
// tells the two apart.
func (m *Memo[K, V]) Peek(k K) (v V, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, found := m.flights[k]
	if !found {
		return v, false, nil
	}
	select {
	case <-f.done:
		return f.v, true, f.err
	default:
		return v, false, nil
	}
}

// errComputePanicked is what the waiters of a flight whose compute panicked
// observe.
var errComputePanicked = errors.New("runner: memoized computation panicked")

// Len returns how many entries the memo holds, completed or in flight.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.flights)
}

// cancelled reports whether err is a context cancellation or deadline: an
// outcome that describes the caller's context, not the key, so no memo
// owner keeps it.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
