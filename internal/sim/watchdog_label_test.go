package sim_test

import (
	"errors"
	"strings"
	"testing"

	"busprefetch/internal/check"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
)

// TestStallReportNamesCellAndProgress: when the sweep engine labels a run
// (sim.Config.Label carries the cell, e.g. "mp3d/PREF/T=8"), a watchdog stall
// must surface that label and an elapsed-progress snapshot, so a stall report
// from a 25-cell sweep says which cell hung and how far into the run — not
// just that "a" simulation stopped.
func TestStallReportNamesCellAndProgress(t *testing.T) {
	c := cfg()
	c.Label = "mp3d/PREF/T=8"
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
	if stall.Label != c.Label {
		t.Errorf("stall label = %q, want %q", stall.Label, c.Label)
	}
	if stall.Progress == 0 {
		t.Error("stall progress snapshot is zero; the lock winner retired work before the loser starved")
	}
	if stall.Cycle == 0 {
		t.Error("stall cycle snapshot is zero")
	}
	if !strings.Contains(err.Error(), "[mp3d/PREF/T=8]") {
		t.Errorf("stall message does not name the cell: %q", err.Error())
	}
	// An unlabeled run reports the same stall without a label decoration.
	c.Label = ""
	_, err = sim.RunSource(c, trace.FromTrace(&trace.Trace{Name: "test", Streams: []trace.Stream{lock, lock}}))
	var bare *check.StallError
	if !errors.As(err, &bare) {
		t.Fatalf("unlabeled run error is %T (%v), want *check.StallError", err, err)
	}
	if bare.Label != "" {
		t.Errorf("unlabeled run reported label %q", bare.Label)
	}
	if strings.Contains(err.Error(), "[") {
		t.Errorf("unlabeled stall message has a label decoration: %q", err.Error())
	}
}
