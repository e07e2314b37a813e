package runner

import (
	"context"
	"errors"
	"testing"

	"busprefetch/internal/check"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrClass
	}{
		{"nil", nil, Retryable},
		{"stall", &check.StallError{Cycle: 10, Reason: "empty queue"}, Terminal},
		{"wrapped stall", wrap(&check.StallError{Cycle: 10, Reason: "q"}), Terminal},
		{"deadline", context.DeadlineExceeded, Retryable},
		{"wrapped deadline", wrap(context.DeadlineExceeded), Retryable},
		{"cancelled", context.Canceled, Terminal},
		{"violation", &check.Violation{Rule: "SWMR"}, Terminal},
		{"panic", &PanicError{Label: "x", Value: "boom"}, Terminal},
		{"unknown", errors.New("mystery"), Terminal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func wrap(err error) error { return &wrapped{err} }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

func TestErrClassString(t *testing.T) {
	if Retryable.String() != "retryable" || Terminal.String() != "terminal" {
		t.Errorf("String() = %q/%q", Retryable, Terminal)
	}
}
