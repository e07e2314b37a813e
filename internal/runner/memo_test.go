package runner

import (
	"context"
	"testing"
	"time"
)

// TestMemoPanicForgetsFlight: a compute that panics must not leave its
// flight behind. The panic reaches the computing caller, and the next
// caller computes afresh instead of waiting forever on a flight that will
// never land.
func TestMemoPanicForgetsFlight(t *testing.T) {
	var m Memo[string, int]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("computing caller recovered %v, want the compute's panic", r)
			}
		}()
		m.Do(context.Background(), "k", func() (int, bool, error) { panic("boom") })
	}()
	if n := m.Len(); n != 0 {
		t.Fatalf("memo holds %d entries after the panic, want 0", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, hit, err := m.Do(ctx, "k", func() (int, bool, error) { return 3, true, nil })
	if v != 3 || hit || err != nil {
		t.Errorf("after the panic: v=%d hit=%v err=%v, want a fresh compute", v, hit, err)
	}
}
