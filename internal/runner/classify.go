package runner

import (
	"context"
	"errors"
)

// ErrClass answers the question a failed computation leaves its caller:
// can submitting the same spec again succeed?
type ErrClass int

const (
	// Retryable errors say nothing about the spec: the computation ran out
	// of wall clock (a per-cell or per-run timeout), which a less loaded
	// host or a larger budget may not.
	Retryable ErrClass = iota
	// Terminal errors are facts about the spec. The simulation is a pure
	// function of its inputs, so an invariant violation, a watchdog stall,
	// a panic or an invalid spec recurs on every run, and a cancelled sweep
	// was stopped by its operator.
	Terminal
)

func (c ErrClass) String() string {
	if c == Terminal {
		return "terminal"
	}
	return "retryable"
}

// Classify sorts an error into the retryable/terminal taxonomy. Only a
// context deadline is retryable: a per-cell timeout may be contention on an
// oversubscribed worker pool, not a wedged cell. Everything else is
// terminal:
//
//   - context.Canceled: the sweep itself was cancelled;
//   - *check.StallError: a deterministic replay stalls at the same cycle
//     every time it runs;
//   - *check.Violation, *PanicError and unknown errors: deterministic bugs
//     or bad configurations.
func Classify(err error) ErrClass {
	if err == nil || (errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)) {
		return Retryable
	}
	return Terminal
}
