package sim_test

import (
	"errors"
	"testing"

	"busprefetch/internal/cache"
	"busprefetch/internal/check"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
)

// TestDroppedLockReleaseTripsWatchdog injects the classic never-released-lock
// hang: both processors' lock releases are suppressed at runtime (the trace
// itself is balanced, so it validates), so whichever processor acquires the
// lock first starves the other forever. The run must fail with a
// *check.StallError naming the starved processor, the lock, and its holder.
func TestDroppedLockReleaseTripsWatchdog(t *testing.T) {
	c := cfg()
	c.Faults = &check.Plan{DropReleases: []check.LockDrop{
		{Proc: 0, Nth: -1},
		{Proc: 1, Nth: -1},
	}}
	lock := trace.Stream{
		{Kind: trace.Lock, Addr: 0x40},
		{Kind: trace.Read, Addr: 0x1000, Gap: 10},
		{Kind: trace.Unlock, Addr: 0x40},
	}
	_, err := sim.RunSource(c, trace.FromTrace(&trace.Trace{Name: "test", Streams: []trace.Stream{lock, lock}}))
	if err == nil {
		t.Fatal("run with dropped lock releases completed")
	}
	var stall *check.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error is %T (%v), want *check.StallError", err, err)
	}
	if len(stall.Stalls) != 1 {
		t.Fatalf("stall report: %v, want exactly one starved processor", stall)
	}
	s := stall.Stalls[0]
	if s.Wait != check.WaitLock {
		t.Errorf("wait kind = %v, want lock", s.Wait)
	}
	if !s.HasObject || s.Object != 0x40 {
		t.Errorf("stall object = %#x (has=%v), want lock 0x40", uint64(s.Object), s.HasObject)
	}
	holder := 1 - s.Proc // the other processor won the lock and kept it
	if s.Holder != holder {
		t.Errorf("holder = %d, want %d", s.Holder, holder)
	}
	// The same trace without the fault plan completes.
	c.Faults = nil
	if _, err := sim.RunSource(c, trace.FromTrace(&trace.Trace{Name: "test", Streams: []trace.Stream{lock, lock}})); err != nil {
		t.Errorf("fault-free run failed: %v", err)
	}
}

// TestStateFlipTripsCoherenceChecker corrupts proc 0's cache after each of its
// line fills, forcing the just-filled line to Modified while proc 1 still
// holds a Shared copy — exactly the owner-with-sharers state the Illinois
// invariants forbid. The post-fill invariant check must abort the run with a
// *check.Violation.
func TestStateFlipTripsCoherenceChecker(t *testing.T) {
	c := cfg()
	c.CheckInvariants = true
	c.Faults = &check.Plan{Flips: []check.StateFlip{
		{Proc: 0, To: cache.Modified, OnFill: -1},
	}}
	streams := []trace.Stream{
		// Proc 0 reads the line well after proc 1 holds it, so the fill
		// installs Shared and the injected flip to Modified is illegal.
		{{Kind: trace.Read, Addr: 0x1000, Gap: 300}},
		{{Kind: trace.Read, Addr: 0x1000}},
	}
	_, err := sim.RunSource(c, trace.FromTrace(&trace.Trace{Name: "test", Streams: streams}))
	if err == nil {
		t.Fatal("run with corrupted cache state completed")
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is %T (%v), want *check.Violation", err, err)
	}
	if v.Rule != "owner-with-sharers" && v.Rule != "multiple-owner" {
		t.Errorf("rule = %q", v.Rule)
	}
	// Without the fault the identical run is clean under full checking.
	c.Faults = nil
	if _, err := sim.RunSource(c, trace.FromTrace(&trace.Trace{Name: "test", Streams: streams})); err != nil {
		t.Errorf("fault-free checked run failed: %v", err)
	}
}

// TestHitInFlightTripsChecker breaks the invariant that lets a hit skip the
// in-flight scan: a line valid in its own cache is never in flight. Proc 0's
// copy of X is invalidated by proc 1's write; proc 0 then prefetches Y and X
// and waits for Y, and the fill of Y (proc 0's second) forces X valid while
// X's prefetch is still in flight. The next read of X hits, and with
// CheckInvariants on the run must fail with a hit-in-flight
// *check.Violation.
func TestHitInFlightTripsChecker(t *testing.T) {
	const x, y = 0x1000, 0x2000
	c := cfg()
	c.CheckInvariants = true
	c.Faults = &check.Plan{Flips: []check.StateFlip{
		{Proc: 0, Addr: x, To: cache.Shared, OnFill: 1},
	}}
	tr := &trace.Trace{Name: "test", Streams: []trace.Stream{
		{
			{Kind: trace.Read, Addr: x},
			{Kind: trace.Barrier, Addr: 1},
			{Kind: trace.Barrier, Addr: 2},
			{Kind: trace.Prefetch, Addr: y},
			{Kind: trace.Prefetch, Addr: x},
			{Kind: trace.Read, Addr: y},
			{Kind: trace.Read, Addr: x},
		},
		{
			{Kind: trace.Barrier, Addr: 1},
			{Kind: trace.Write, Addr: x},
			{Kind: trace.Barrier, Addr: 2},
		},
	}}
	_, err := sim.RunSource(c, trace.FromTrace(tr))
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is %T (%v), want *check.Violation", err, err)
	}
	if v.Rule != "hit-in-flight" || v.Line != x {
		t.Errorf("violation %v, want hit-in-flight on line %#x", v, x)
	}
	c.Faults = nil
	if _, err := sim.RunSource(c, trace.FromTrace(tr)); err != nil {
		t.Errorf("fault-free checked run failed: %v", err)
	}
}

// TestTruncatedStreamRejected: cutting one processor's stream off before its
// barrier (check.Injector models a trace cut off mid-computation) leaves the
// barrier counts unbalanced; the replay must reject the trace with a clear
// validation error instead of reporting the resulting deadlock as a stall.
func TestTruncatedStreamRejected(t *testing.T) {
	full := trace.Stream{
		{Kind: trace.Read, Addr: 0x1000},
		{Kind: trace.Barrier, Addr: 1},
		{Kind: trace.Read, Addr: 0x2000},
	}
	base := &trace.Trace{Name: "test", Streams: []trace.Stream{full, full}}
	cut, err := check.NewInjector(1).TruncateStream(base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunSource(cfg(), trace.FromTrace(cut))
	if err == nil {
		t.Fatal("run accepted a trace with unbalanced barriers")
	}
	var stall *check.StallError
	if errors.As(err, &stall) {
		t.Errorf("unbalanced barriers reported as a stall: %v", err)
	}
}

// TestBarrierStallNamesBarrier: with every lock release dropped, the
// processor that wins the lock sails on to the barrier and waits for the
// starved loser forever. The stall report must name both: one processor on the
// lock, one on the barrier.
func TestBarrierStallNamesBarrier(t *testing.T) {
	c := cfg()
	c.Faults = &check.Plan{DropReleases: []check.LockDrop{
		{Proc: 0, Nth: -1},
		{Proc: 1, Nth: -1},
	}}
	s := trace.Stream{
		{Kind: trace.Lock, Addr: 0x40},
		{Kind: trace.Unlock, Addr: 0x40, Gap: 10},
		{Kind: trace.Barrier, Addr: 3},
	}
	_, err := sim.RunSource(c, trace.FromTrace(&trace.Trace{Name: "test", Streams: []trace.Stream{s, s}}))
	if err == nil {
		t.Fatal("run completed despite dropped releases")
	}
	var stall *check.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error is %T (%v), want *check.StallError", err, err)
	}
	var onLock, onBarrier int
	for _, st := range stall.Stalls {
		switch st.Wait {
		case check.WaitLock:
			onLock++
		case check.WaitBarrier:
			onBarrier++
			if !st.HasObject || st.Object != 3 {
				t.Errorf("barrier stall object = %#x, want 3", uint64(st.Object))
			}
		}
	}
	if onLock != 1 || onBarrier != 1 {
		t.Errorf("stall report %v: %d on lock, %d on barrier, want 1 and 1", stall, onLock, onBarrier)
	}
}

// TestCheckedRunsMatchUnchecked verifies the checker is an observer: enabling
// CheckInvariants must not change any simulation outcome.
func TestCheckedRunsMatchUnchecked(t *testing.T) {
	streams := []trace.Stream{
		{
			{Kind: trace.Lock, Addr: 0x40},
			{Kind: trace.Write, Addr: 0x1000, Gap: 4},
			{Kind: trace.Unlock, Addr: 0x40},
			{Kind: trace.Prefetch, Addr: 0x2000, Gap: 2},
			{Kind: trace.Read, Addr: 0x2000, Gap: 150},
			{Kind: trace.Barrier, Addr: 9},
		},
		{
			{Kind: trace.Lock, Addr: 0x40, Gap: 7},
			{Kind: trace.Write, Addr: 0x1004, Gap: 4},
			{Kind: trace.Unlock, Addr: 0x40},
			{Kind: trace.Read, Addr: 0x1000, Gap: 60},
			{Kind: trace.Barrier, Addr: 9},
		},
	}
	tr := &trace.Trace{Name: "test", Streams: streams}
	plain, err := sim.RunSource(cfg(), trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.CheckInvariants = true
	checked, err := sim.RunSource(c, trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != checked.Cycles || plain.Counters != checked.Counters {
		t.Errorf("checked run diverged: cycles %d vs %d", plain.Cycles, checked.Cycles)
	}
}
