package chaos

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestChaosSoak runs one full cycle of the five fault archetypes with a
// pinned seed: every assertion the harness makes (termination, fault
// classification, store integrity, golden recovery after kills, torn
// writes, and resumes) runs inside Soak itself, so the test mostly checks
// that the soak finishes and that the tally shows the faults really fired.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak takes a few seconds (the spin fault burns a full cell timeout)")
	}
	rep, err := Soak(context.Background(), Options{
		Seed:  7,
		Plans: 5,
		Dir:   t.TempDir(),
		Log:   t.Logf,
	})
	if err != nil {
		t.Fatalf("soak failed: %v\n(report so far: %v)", err, rep)
	}
	t.Log(rep)
	if rep.Plans != 5 || rep.Skipped != 0 {
		t.Errorf("ran %d plan(s), skipped %d, want 5 and 0", rep.Plans, rep.Skipped)
	}
	if rep.Failed != 4 {
		t.Errorf("failed cells = %d, want 4 (one per faulted plan)", rep.Failed)
	}
	if rep.Injected < 4 {
		t.Errorf("armed runs = %d, want at least one per faulted plan", rep.Injected)
	}
	if rep.Kills == 0 {
		t.Error("no sweep was killed mid-flight (seed no longer exercises the kill path)")
	}
	if rep.Resumes != rep.Kills {
		t.Errorf("kills = %d but resumes = %d; every kill must resume", rep.Kills, rep.Resumes)
	}
	if rep.Kills > 0 && rep.CheckpointHits == 0 {
		t.Error("resumed sweeps restored no cells from the checkpoint store")
	}
}

// TestChaosSoakBudget: a spent budget skips the remaining plans instead of
// overrunning — the property that keeps the scheduled CI job bounded.
func TestChaosSoakBudget(t *testing.T) {
	rep, err := Soak(context.Background(), Options{
		Seed:   11,
		Plans:  1000,
		Budget: time.Nanosecond, // spent before the first plan starts
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	// The golden sweep runs before the budget check, so the only cost is one
	// clean sweep; all thousand plans must be skipped.
	if rep.Plans != 0 || rep.Skipped != 1000 {
		t.Errorf("ran %d plan(s), skipped %d, want 0 and 1000", rep.Plans, rep.Skipped)
	}
}

// TestChaosSoakCancellation: cancelling the soak's own context stops it
// between plans with the context's error, not an assertion failure.
func TestChaosSoakCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Soak(ctx, Options{Seed: 3, Plans: 5, Dir: t.TempDir()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled soak returned %v, want context.Canceled", err)
	}
}
