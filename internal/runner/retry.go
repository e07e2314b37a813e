package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"busprefetch/internal/check"
)

// ErrClass is the sweep engine's error taxonomy: whether re-running a failed
// cell can plausibly succeed.
type ErrClass int

const (
	// Retryable errors are transient conditions — an injected fault, a
	// watchdog stall, a per-cell deadline — where a fresh attempt on the
	// same inputs may complete. The engine retries them with backoff.
	Retryable ErrClass = iota
	// Terminal errors are deterministic facts about the configuration — an
	// invariant violation, a panic, an invalid spec, a cancelled sweep —
	// that no number of retries will change. The engine fails the cell
	// immediately and records the classification.
	Terminal
)

func (c ErrClass) String() string {
	if c == Terminal {
		return "terminal"
	}
	return "retryable"
}

// TransientError marks an error as retryable regardless of its underlying
// type. Fault injectors and flaky external resources (a checkpoint volume, a
// remote trace source) wrap their failures in it to route them into the
// retry path.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// Classify sorts an error into the retryable/terminal taxonomy:
//
//   - *TransientError: retryable by declaration.
//   - *check.StallError: retryable. A watchdog trip is a symptom — under
//     fault injection a re-run without the fault completes, and a genuine
//     deterministic deadlock simply exhausts its retries and surfaces with
//     the full stall diagnosis attached.
//   - context.DeadlineExceeded: retryable. A per-cell timeout may be
//     contention on an oversubscribed worker pool, not a wedged cell.
//   - context.Canceled: terminal. The sweep itself was cancelled; retrying
//     would fight the operator.
//   - *check.Violation, *PanicError, and everything else: terminal. A
//     coherence-invariant violation or a panic is a deterministic bug, and
//     unknown errors default to terminal so a typo'd configuration fails
//     fast instead of retrying N times.
func Classify(err error) ErrClass {
	if err == nil {
		return Retryable
	}
	var transient *TransientError
	if errors.As(err, &transient) {
		return Retryable
	}
	if errors.Is(err, context.Canceled) {
		return Terminal
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Retryable
	}
	var stall *check.StallError
	if errors.As(err, &stall) {
		return Retryable
	}
	return Terminal
}

// ExhaustedError reports that every attempt of a retryable operation failed;
// Err is the last attempt's error.
type ExhaustedError struct {
	Attempts int
	Err      error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("runner: gave up after %d attempts: %v", e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// Policy configures Retry.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included);
	// values <= 1 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay. Zero selects 10ms (and 1s).
	BaseDelay, MaxDelay time.Duration
	// Seed seeds the jitter: every delay is scaled by a uniform factor in
	// [0.5, 1.5) so a sweep's failed cells do not retry in lockstep. A fixed
	// seed makes retry schedules reproducible in tests.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// Retry runs fn up to p.MaxAttempts times, backing off exponentially with
// jitter between attempts, until it succeeds, fails terminally (per
// Classify), or the context is cancelled. Terminal errors and
// single-attempt failures return as-is; a retryable error that survives every
// attempt returns wrapped in *ExhaustedError carrying the attempt count.
// attempts reports how many times fn ran.
func Retry(ctx context.Context, p Policy, fn func(ctx context.Context) error) (err error, attempts int) {
	p = p.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	var rng *rand.Rand
	delay := p.BaseDelay
	for attempts < p.MaxAttempts {
		attempts++
		err = fn(ctx)
		if err == nil {
			return nil, attempts
		}
		if Classify(err) == Terminal || attempts >= p.MaxAttempts {
			break
		}
		if ctx.Err() != nil {
			// The sweep was cancelled while the attempt ran; surface the
			// cancellation rather than sleeping into a doomed retry.
			return ctx.Err(), attempts
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		jittered := time.Duration(float64(delay) * (0.5 + rng.Float64()))
		t := time.NewTimer(jittered)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err(), attempts
		}
		if delay *= 2; delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
	if attempts > 1 {
		return &ExhaustedError{Attempts: attempts, Err: err}, attempts
	}
	return err, attempts
}
