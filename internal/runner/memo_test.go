package runner

import (
	"context"
	"errors"
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

// TestMemoPeek: Peek returns an entry only once its flight has completed
// and was kept, a memoized failure included. It returns at once, absent,
// while a flight is still computing, and it never computes: an outcome the
// memo did not keep, and a key never asked for, are absent too.
func TestMemoPeek(t *testing.T) {
	var m Memo[string, int]
	ctx := context.Background()
	if _, ok, _ := m.Peek("never"); ok {
		t.Error("Peek found a key that was never computed")
	}

	m.Do(ctx, "kept", func() (int, bool, error) { return 7, true, nil })
	if v, ok, err := m.Peek("kept"); !ok || v != 7 || err != nil {
		t.Errorf("kept entry: v=%d ok=%v err=%v, want 7", v, ok, err)
	}
	broken := errors.New("broken spec")
	m.Do(ctx, "failed", func() (int, bool, error) { return 0, true, broken })
	if _, ok, err := m.Peek("failed"); !ok || !errors.Is(err, broken) {
		t.Errorf("memoized failure: ok=%v err=%v, want %v", ok, err, broken)
	}
	m.Do(ctx, "dropped", func() (int, bool, error) { return 5, false, nil })
	if _, ok, _ := m.Peek("dropped"); ok {
		t.Error("Peek found an outcome the memo did not keep")
	}

	started, release, landed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(landed)
		m.Do(ctx, "running", func() (int, bool, error) {
			close(started)
			<-release
			return 9, true, nil
		})
	}()
	<-started
	peeked := make(chan bool, 1)
	go func() {
		_, ok, _ := m.Peek("running")
		peeked <- ok
	}()
	select {
	case ok := <-peeked:
		if ok {
			t.Error("Peek returned a flight that is still computing")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Peek blocked on a flight that is still computing")
	}
	close(release)
	<-landed
	if v, ok, _ := m.Peek("running"); !ok || v != 9 {
		t.Errorf("after the flight landed: v=%d ok=%v, want 9", v, ok)
	}
	if n := m.Len(); n != 3 {
		t.Errorf("memo holds %d entries, want the 3 kept ones: Peek must not add any", n)
	}
}
