package bus

import (
	"container/heap"
	"testing"
)

// testSched is a minimal deterministic event queue for driving the bus in
// isolation.
type testSched struct {
	h   schedHeap
	now uint64
	seq uint64
}

type schedEvent struct {
	t   uint64
	seq uint64
	fn  func(uint64)
}

type schedHeap []schedEvent

func (h schedHeap) Len() int { return len(h) }
func (h schedHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h schedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *schedHeap) Push(x interface{}) { *h = append(*h, x.(schedEvent)) }
func (h *schedHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (s *testSched) At(t uint64, fn func(uint64)) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.h, schedEvent{t, s.seq, fn})
}

func (s *testSched) run() {
	for s.h.Len() > 0 {
		e := heap.Pop(&s.h).(schedEvent)
		s.now = e.t
		e.fn(e.t)
	}
}

func mustNew(t *testing.T, s Scheduler, nproc int) *Bus {
	t.Helper()
	b, err := New(s, nproc)
	if err != nil {
		t.Fatalf("New(%d): %v", nproc, err)
	}
	return b
}

func mkReq(ready, occ uint64, class Class, proc int, grants *[]grantRecord, name string) *Request {
	r := &Request{Ready: ready, Occupancy: occ, Class: class, Op: OpFill, Proc: proc}
	r.OnGrant = func(g uint64) {
		*grants = append(*grants, grantRecord{name, g})
	}
	return r
}

type grantRecord struct {
	name  string
	grant uint64
}

func TestSingleRequestGrantedAtReady(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 4)
	var grants []grantRecord
	var completeAt uint64
	r := mkReq(100, 8, Demand, 0, &grants, "r")
	r.OnComplete = func(c uint64) { completeAt = c }
	b.Submit(0, r)
	s.run()
	if len(grants) != 1 || grants[0].grant != 100 {
		t.Fatalf("grants = %v, want r@100", grants)
	}
	if completeAt != 108 {
		t.Errorf("complete at %d, want 108", completeAt)
	}
	if got := b.Stats().BusyCycles; got != 8 {
		t.Errorf("busy cycles %d, want 8", got)
	}
}

func TestSerialization(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 4)
	var grants []grantRecord
	b.Submit(0, mkReq(10, 8, Demand, 0, &grants, "a"))
	b.Submit(0, mkReq(10, 8, Demand, 1, &grants, "b"))
	s.run()
	if len(grants) != 2 {
		t.Fatalf("grants = %v", grants)
	}
	if grants[0].grant != 10 || grants[1].grant != 18 {
		t.Errorf("grants at %d,%d; want 10,18", grants[0].grant, grants[1].grant)
	}
}

func TestDemandBeatsPrefetch(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 4)
	var grants []grantRecord
	// Both ready at 10; prefetch submitted first but demand must win.
	b.Submit(0, mkReq(10, 8, Prefetch, 0, &grants, "pf"))
	b.Submit(0, mkReq(10, 8, Demand, 1, &grants, "dm"))
	s.run()
	if grants[0].name != "dm" {
		t.Errorf("grant order %v, demand must win arbitration", grants)
	}
}

func TestWritebackLosesToBoth(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 4)
	var grants []grantRecord
	b.Submit(0, mkReq(5, 4, Writeback, 0, &grants, "wb"))
	b.Submit(0, mkReq(5, 4, Prefetch, 1, &grants, "pf"))
	b.Submit(0, mkReq(5, 4, Demand, 2, &grants, "dm"))
	s.run()
	want := []string{"dm", "pf", "wb"}
	for i, w := range want {
		if grants[i].name != w {
			t.Fatalf("grant order %v, want %v", grants, want)
		}
	}
}

func TestRoundRobinAmongSameClass(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 4)
	var grants []grantRecord
	// lastWin starts at proc 3, so round-robin order is 0,1,2,3.
	b.Submit(0, mkReq(0, 2, Demand, 2, &grants, "p2"))
	b.Submit(0, mkReq(0, 2, Demand, 0, &grants, "p0"))
	b.Submit(0, mkReq(0, 2, Demand, 3, &grants, "p3"))
	b.Submit(0, mkReq(0, 2, Demand, 1, &grants, "p1"))
	s.run()
	want := []string{"p0", "p1", "p2", "p3"}
	for i, w := range want {
		if grants[i].name != w {
			t.Fatalf("grant order %v, want %v", grants, want)
		}
	}
}

func TestRoundRobinRotates(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 2)
	var grants []grantRecord
	// After proc 0 wins, proc 1 must come before proc 0 again.
	b.Submit(0, mkReq(0, 2, Demand, 0, &grants, "a0"))
	s.run()
	b.Submit(s.now, mkReq(s.now, 2, Demand, 0, &grants, "b0"))
	b.Submit(s.now, mkReq(s.now, 2, Demand, 1, &grants, "b1"))
	s.run()
	if grants[1].name != "b1" || grants[2].name != "b0" {
		t.Errorf("grant order %v, want b1 before b0 after proc 0 won", grants)
	}
}

func TestStatsByOp(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 2)
	var grants []grantRecord
	inv := mkReq(0, 2, Demand, 0, &grants, "inv")
	inv.Op = OpInvalidate
	wb := mkReq(0, 8, Writeback, 0, &grants, "wb")
	wb.Op = OpWriteback
	b.Submit(0, mkReq(0, 8, Demand, 1, &grants, "fill"))
	b.Submit(0, inv)
	b.Submit(0, wb)
	s.run()
	st := b.Stats()
	if st.Ops[OpFill] != 1 || st.Ops[OpInvalidate] != 1 || st.Ops[OpWriteback] != 1 {
		t.Errorf("ops = %v", st.Ops)
	}
	if st.TotalOps() != 3 {
		t.Errorf("TotalOps = %d", st.TotalOps())
	}
	if st.BusyCycles != 18 {
		t.Errorf("BusyCycles = %d, want 18", st.BusyCycles)
	}
	if st.DemandGrants != 1 || st.PrefetchGrants != 0 {
		t.Errorf("fill grant split = %d/%d", st.DemandGrants, st.PrefetchGrants)
	}
}

func TestCompletionRunsBeforeNextGrant(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 2)
	var order []string
	a := &Request{Ready: 0, Occupancy: 4, Class: Demand, Proc: 0,
		OnComplete: func(uint64) { order = append(order, "a-complete") }}
	c := &Request{Ready: 0, Occupancy: 4, Class: Demand, Proc: 1,
		OnGrant: func(uint64) { order = append(order, "c-grant") }}
	b.Submit(0, a)
	b.Submit(0, c)
	s.run()
	if len(order) != 2 || order[0] != "a-complete" || order[1] != "c-grant" {
		t.Errorf("order = %v; fills must install before the next snoop", order)
	}
}

func TestDoubleSubmitRejected(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 2)
	r := &Request{Ready: 0, Occupancy: 1, Proc: 0}
	if err := b.Submit(0, r); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := b.Submit(0, r); err == nil {
		t.Error("double submit accepted; want error")
	}
	if got := b.Pending(); got != 1 {
		t.Errorf("pending after rejected resubmit = %d, want 1", got)
	}
	s.run()
	// A granted request must also be rejected on resubmission.
	if err := b.Submit(s.now, r); err == nil {
		t.Error("resubmit of granted request accepted; want error")
	}
}

func TestSubmitRejectsBadRequest(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 2)
	if err := b.Submit(0, nil); err == nil {
		t.Error("nil request accepted; want error")
	}
	if err := b.Submit(0, &Request{Ready: 0, Occupancy: 1, Proc: 7}); err == nil {
		t.Error("out-of-range proc accepted; want error")
	}
	if err := b.Submit(0, &Request{Ready: 0, Occupancy: 1, Proc: -1}); err == nil {
		t.Error("negative proc accepted; want error")
	}
	if got := b.Pending(); got != 0 {
		t.Errorf("rejected submissions left %d pending requests", got)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(&testSched{}, 0); err == nil {
		t.Error("New accepted zero processors")
	}
	if _, err := New(&testSched{}, -3); err == nil {
		t.Error("New accepted negative processors")
	}
	if _, err := New(&testSched{}, 65); err == nil {
		t.Error("New accepted 65 processors, past the occupancy masks' 64 bits")
	}
	if _, err := New(nil, 4); err == nil {
		t.Error("New accepted nil scheduler")
	}
}

// TestRoundRobinFairnessUnderSaturation keeps four processors' demand
// streams saturating the bus — each processor resubmits a fresh request the
// moment its previous one completes — and verifies the round-robin arbiter
// shares grants evenly (no processor is starved or favored).
func TestRoundRobinFairnessUnderSaturation(t *testing.T) {
	s := &testSched{}
	const nproc = 4
	const perProc = 64
	b := mustNew(t, s, nproc)
	counts := make([]int, nproc)
	var submit func(proc, remaining int)
	submit = func(proc, remaining int) {
		r := &Request{Ready: s.now, Occupancy: 4, Class: Demand, Op: OpFill, Proc: proc}
		r.OnGrant = func(uint64) { counts[proc]++ }
		r.OnComplete = func(uint64) {
			if remaining > 1 {
				submit(proc, remaining-1)
			}
		}
		if err := b.Submit(s.now, r); err != nil {
			t.Fatalf("submit proc %d: %v", proc, err)
		}
	}
	for p := 0; p < nproc; p++ {
		submit(p, perProc)
	}
	s.run()
	for p, c := range counts {
		if c != perProc {
			t.Errorf("proc %d got %d grants, want %d", p, c, perProc)
		}
	}
	// Under permanent saturation the arbiter must also interleave, not run
	// one processor to completion: the bus can never be idle between the
	// first submission and the last completion.
	st := b.Stats()
	if st.BusyCycles != nproc*perProc*4 {
		t.Errorf("busy cycles %d, want %d (no idle gaps under saturation)", st.BusyCycles, nproc*perProc*4)
	}
}

func TestLateReadyRequestWaits(t *testing.T) {
	s := &testSched{}
	b := mustNew(t, s, 2)
	var grants []grantRecord
	b.Submit(0, mkReq(50, 4, Demand, 0, &grants, "late"))
	b.Submit(0, mkReq(0, 4, Prefetch, 1, &grants, "early-pf"))
	s.run()
	// The prefetch is the only request ready at t=0 and must not wait for
	// the (higher-priority) demand that is not ready yet.
	if grants[0].name != "early-pf" || grants[0].grant != 0 {
		t.Errorf("grants = %v", grants)
	}
	if grants[1].grant != 50 {
		t.Errorf("late demand granted at %d, want 50", grants[1].grant)
	}
}
