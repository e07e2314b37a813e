package check

import (
	"strings"
	"testing"

	"busprefetch/internal/cache"
	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

func TestCoherenceAcceptsLegalStates(t *testing.T) {
	cases := []struct {
		name   string
		states []ProcLineState
	}{
		{"all invalid", []ProcLineState{{Proc: 0}, {Proc: 1}}},
		{"one modified", []ProcLineState{{Proc: 0, State: cache.Modified}, {Proc: 1}}},
		{"one exclusive", []ProcLineState{{Proc: 0, State: cache.Exclusive}, {Proc: 1}}},
		{"many shared", []ProcLineState{
			{Proc: 0, State: cache.Shared}, {Proc: 1, State: cache.Shared}, {Proc: 2, State: cache.Shared}}},
		{"victim owner alone", []ProcLineState{{Proc: 0, VictimState: cache.Modified}, {Proc: 1}}},
	}
	for _, c := range cases {
		if v := CheckLine(10, 0x1000, c.states, InvalidationOwnership); v != nil {
			t.Errorf("%s: unexpected violation %v", c.name, v)
		}
	}
}

func TestCoherenceMultipleOwner(t *testing.T) {
	v := CheckLine(42, 0x2000, []ProcLineState{
		{Proc: 0, State: cache.Modified},
		{Proc: 1, State: cache.Exclusive},
	}, InvalidationOwnership)
	if v == nil {
		t.Fatal("two owners accepted")
	}
	if v.Rule != "multiple-owner" || v.Cycle != 42 || v.Line != 0x2000 {
		t.Errorf("violation = %+v", v)
	}
	if msg := v.Error(); !strings.Contains(msg, "multiple-owner") || !strings.Contains(msg, "0x2000") {
		t.Errorf("Error() = %q", msg)
	}
}

func TestCoherenceOwnerWithSharers(t *testing.T) {
	v := CheckLine(7, 0x3000, []ProcLineState{
		{Proc: 0, State: cache.Modified},
		{Proc: 1, State: cache.Shared},
		{Proc: 2, State: cache.Shared},
	}, InvalidationOwnership)
	if v == nil {
		t.Fatal("owner with sharers accepted")
	}
	if v.Rule != "owner-with-sharers" {
		t.Errorf("rule = %q", v.Rule)
	}
	// The report must include every valid cache's view of the line.
	msg := v.Error()
	for _, want := range []string{"proc0=M", "proc1=S", "proc2=S"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestCoherenceCountsVictimCacheCopies(t *testing.T) {
	// An owner in one cache plus an owner in another cache's victim cache is
	// still two owners.
	v := CheckLine(1, 0x4000, []ProcLineState{
		{Proc: 0, State: cache.Exclusive},
		{Proc: 1, VictimState: cache.Modified},
	}, InvalidationOwnership)
	if v == nil || v.Rule != "multiple-owner" {
		t.Errorf("victim-cache owner not counted: %v", v)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	if v := PrefetchAccounting(1, 0, 3, 3, 16); v != nil {
		t.Errorf("legal accounting rejected: %v", v)
	}
	if v := PrefetchAccounting(1, 0, 0, 0, 16); v != nil {
		t.Errorf("idle accounting rejected: %v", v)
	}
	cases := []struct{ outstanding, inflight, depth int }{
		{2, 3, 16},                                      // leaked slot
		{-1, -1, 16} /* negative count */, {17, 17, 16}, // over depth
	}
	for _, c := range cases {
		v := PrefetchAccounting(5, 2, c.outstanding, c.inflight, c.depth)
		if v == nil {
			t.Errorf("accepted outstanding=%d inflight=%d depth=%d", c.outstanding, c.inflight, c.depth)
			continue
		}
		if v.Rule != "prefetch-accounting" {
			t.Errorf("rule = %q", v.Rule)
		}
	}
}

func TestStallErrorReport(t *testing.T) {
	e := &StallError{
		Cycle:  1234,
		Reason: "event queue drained with unfinished processors",
		Stalls: []ProcStall{
			{Proc: 3, Event: 10, Events: 20, Wait: WaitLock, Object: 0x5000, HasObject: true, Holder: 1},
			{Proc: 4, Event: 5, Events: 20, Wait: WaitBarrier, Object: 7, HasObject: true, Holder: -1},
		},
	}
	msg := e.Error()
	for _, want := range []string{"cycle 1234", "proc 3", "lock 0x5000 held by proc 1", "proc 4", "barrier 0x7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestPlanDropRelease(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.DropRelease(0, 0x10, 0) {
		t.Error("nil plan dropped a release")
	}
	p := &Plan{DropReleases: []LockDrop{
		{Proc: 1, Addr: 0x40, Nth: 2},
		{Proc: 2, Nth: -1}, // any lock, every release
	}}
	cases := []struct {
		proc int
		addr memory.Addr
		nth  int
		want bool
	}{
		{1, 0x40, 2, true},
		{1, 0x40, 1, false}, // wrong ordinal
		{1, 0x80, 2, false}, // wrong lock
		{0, 0x40, 2, false}, // wrong proc
		{2, 0x40, 0, true},
		{2, 0x99, 57, true},
	}
	for _, c := range cases {
		if got := p.DropRelease(c.proc, c.addr, c.nth); got != c.want {
			t.Errorf("DropRelease(%d, %#x, %d) = %v, want %v", c.proc, uint64(c.addr), c.nth, got, c.want)
		}
	}
}

func TestPlanFlipsAfterFill(t *testing.T) {
	var nilPlan *Plan
	if fs := nilPlan.FlipsAfterFill(0, 0, 0x1000); fs != nil {
		t.Error("nil plan produced flips")
	}
	p := &Plan{Flips: []StateFlip{
		{Proc: 0, Addr: 0, To: cache.Modified, OnFill: 3}, // the just-filled line
		{Proc: 0, Addr: 0x2000, To: cache.Shared, OnFill: -1},
		{Proc: 1, To: cache.Modified, OnFill: -1},
	}}
	fs := p.FlipsAfterFill(0, 3, 0x7000)
	if len(fs) != 2 {
		t.Fatalf("got %d flips, want 2", len(fs))
	}
	if fs[0].Addr != 0x7000 {
		t.Errorf("zero Addr not resolved to filled line: %#x", uint64(fs[0].Addr))
	}
	if fs[1].Addr != 0x2000 {
		t.Errorf("explicit Addr rewritten: %#x", uint64(fs[1].Addr))
	}
	if fs := p.FlipsAfterFill(0, 2, 0x7000); len(fs) != 1 {
		t.Errorf("wrong-ordinal fill got %d flips, want 1 (the every-fill one)", len(fs))
	}
	if fs := p.FlipsAfterFill(2, 0, 0x7000); len(fs) != 0 {
		t.Errorf("unrelated proc got %d flips", len(fs))
	}
}

func testTrace() *trace.Trace {
	return &trace.Trace{Streams: []trace.Stream{
		{{Kind: trace.Lock, Addr: 0x40}, {Kind: trace.Read, Addr: 0x1000}, {Kind: trace.Unlock, Addr: 0x40}},
		{{Kind: trace.Read, Addr: 0x2000, Gap: 5}},
	}}
}

func TestInjectorDoesNotMutateOriginal(t *testing.T) {
	in := NewInjector(1)
	orig := testTrace()
	if _, err := in.TruncateStream(orig, 0, 1); err != nil {
		t.Fatal(err)
	}
	want := testTrace()
	if len(orig.Streams[0]) != len(want.Streams[0]) {
		t.Fatal("original stream length changed")
	}
	for i, e := range orig.Streams[0] {
		if e != want.Streams[0][i] {
			t.Errorf("original event %d changed: %v", i, e)
		}
	}
}

func TestInjectorCorruptions(t *testing.T) {
	in := NewInjector(1)
	// Truncating mid-critical-section.
	c, err := in.TruncateStream(testTrace(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted a truncated critical section")
	}
}

func TestInjectorBounds(t *testing.T) {
	in := NewInjector(1)
	if _, err := in.TruncateStream(testTrace(), 5, 0); err == nil {
		t.Error("out-of-range proc accepted")
	}
	if _, err := in.TruncateStream(testTrace(), 0, 99); err == nil {
		t.Error("out-of-range keep accepted")
	}
}

func TestFlipBit(t *testing.T) {
	in := NewInjector(7)
	data := []byte{0x00, 0xff, 0x55}
	out, bit := in.FlipBit(data, 9)
	if bit != 9 {
		t.Errorf("bit = %d, want 9", bit)
	}
	if out[1] != 0xff^0x02 {
		t.Errorf("byte 1 = %#x", out[1])
	}
	if data[1] != 0xff {
		t.Error("FlipBit mutated its input")
	}
	// A random flip changes exactly one bit.
	out, bit = in.FlipBit(data, -1)
	if bit < 0 || bit >= len(data)*8 {
		t.Fatalf("random bit %d out of range", bit)
	}
	diff := 0
	for i := range data {
		for b := 0; b < 8; b++ {
			if (data[i]^out[i])&(1<<uint(b)) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bits differ, want 1", diff)
	}
	// Empty input: no crash, no flip.
	if out, bit := in.FlipBit(nil, -1); len(out) != 0 || bit != -1 {
		t.Errorf("FlipBit(nil) = %v, %d", out, bit)
	}
}
