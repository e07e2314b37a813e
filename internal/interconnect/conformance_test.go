package interconnect

import (
	"fmt"
	"testing"

	"busprefetch/internal/bus"
)

// The conformance suite pins every topology against the laws the simulator
// relies on: determinism, conservation of requests, occupancy accounting,
// per-link non-overlap, same-address serialization, and grant-before-complete
// snoop ordering. Each law is checked on the same deterministic synthetic
// schedule for every topology, so a new implementation inherits the whole
// contract by appearing in conformanceConfigs.

// fakeSched is a minimal event queue with the simulator's ordering contract:
// events run by (time, scheduling order).
type fakeSched struct {
	now uint64
	seq int
	evs []fakeEvent
}

type fakeEvent struct {
	t   uint64
	seq int
	fn  func(uint64)
}

func (s *fakeSched) At(t uint64, fn func(uint64)) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.evs = append(s.evs, fakeEvent{t: t, seq: s.seq, fn: fn})
}

func (s *fakeSched) run() {
	for len(s.evs) > 0 {
		best := 0
		for i, e := range s.evs {
			if e.t < s.evs[best].t || (e.t == s.evs[best].t && e.seq < s.evs[best].seq) {
				best = i
			}
		}
		e := s.evs[best]
		s.evs = append(s.evs[:best], s.evs[best+1:]...)
		s.now = e.t
		e.fn(e.t)
	}
}

// conformanceConfigs lists every topology the suite pins.
func conformanceConfigs() []Config {
	return []Config{
		{},                         // the paper's single priority bus
		{Discipline: bus.FCFS},     // single bus, FCFS service
		{Kind: MultiBus, Links: 2}, // dual bus
		{Kind: MultiBus, Links: 4}, // quad bus
		{Kind: MultiBus, Links: 3}, // non-power-of-two routing
		{Kind: Directory},          // per-processor home links
		{Kind: Directory, Links: 4},
	}
}

const (
	confProcs = 4
	confShift = 5 // 32-byte lines
	confReqs  = 64
)

// schedule is the deterministic synthetic submission plan shared by every
// law: a small LCG mixes classes, ops, lines, and submit times so requests
// contend, share lines, and arrive out of Ready order.
type plannedReq struct {
	submitAt  uint64
	ready     uint64
	occupancy uint64
	class     bus.Class
	op        bus.Op
	addr      uint64
	proc      int
}

func confPlan() []plannedReq {
	plan := make([]plannedReq, confReqs)
	state := uint64(0x9e3779b97f4a7c15)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	for i := range plan {
		submit := uint64(i) * 3
		plan[i] = plannedReq{
			submitAt:  submit,
			ready:     submit + next(20),
			occupancy: 1 + next(8),
			class:     bus.Class(next(3)),
			op:        bus.Op(next(4)),
			addr:      (next(8)) << confShift, // 8 distinct lines
			proc:      int(next(confProcs)),
		}
	}
	return plan
}

// traceEntry is one observed event: a grant (with its link) or a completion.
type traceEntry struct {
	kind string // "grant" or "complete"
	req  int
	link int
	t    uint64
}

// runConformance executes the shared plan on a fresh fabric and returns the
// observed event log plus the per-request grant/complete/link records.
func runConformance(t *testing.T, cfg Config) (ic *Fabric, log []traceEntry, reqs []*bus.Request) {
	t.Helper()
	sched := &fakeSched{}
	ic, err := New(cfg, confShift, sched, confProcs)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg, err)
	}
	lastLink := -1
	ic.SetObserver(func(link int, grant, occupancy uint64, op bus.Op, class bus.Class, proc int) {
		lastLink = link
	})
	plan := confPlan()
	reqs = make([]*bus.Request, len(plan))
	for i, p := range plan {
		i, p := i, p
		r := &bus.Request{
			Ready: p.ready, Occupancy: p.occupancy,
			Class: p.class, Op: p.op, Addr: p.addr, Proc: p.proc,
		}
		r.OnGrant = func(g uint64) {
			log = append(log, traceEntry{kind: "grant", req: i, link: lastLink, t: g})
		}
		r.OnComplete = func(c uint64) {
			log = append(log, traceEntry{kind: "complete", req: i, link: -1, t: c})
		}
		reqs[i] = r
		sched.At(p.submitAt, func(now uint64) {
			if err := ic.Submit(now, r); err != nil {
				t.Errorf("Submit req %d: %v", i, err)
			}
		})
	}
	sched.run()
	return ic, log, reqs
}

func TestConformance(t *testing.T) {
	for _, cfg := range conformanceConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			ic, log, reqs := runConformance(t, cfg)
			plan := confPlan()

			// Determinism: an identical second run observes an identical log.
			_, log2, _ := runConformance(t, cfg)
			if fmt.Sprint(log) != fmt.Sprint(log2) {
				t.Error("two identical runs observed different event logs")
			}

			// Conservation: every request granted exactly once and completed
			// exactly once, nothing left pending, op counts match.
			grants := make(map[int]traceEntry)
			completes := make(map[int]uint64)
			for _, e := range log {
				switch e.kind {
				case "grant":
					if _, dup := grants[e.req]; dup {
						t.Fatalf("req %d granted twice", e.req)
					}
					grants[e.req] = e
				case "complete":
					if _, dup := completes[e.req]; dup {
						t.Fatalf("req %d completed twice", e.req)
					}
					completes[e.req] = e.t
				}
			}
			if len(grants) != len(reqs) || len(completes) != len(reqs) {
				t.Fatalf("granted %d, completed %d of %d requests", len(grants), len(completes), len(reqs))
			}
			if p := ic.Pending(); p != 0 {
				t.Errorf("Pending() = %d after drain", p)
			}
			agg := ic.Stats()
			if got, want := agg.TotalOps(), uint64(len(reqs)); got != want {
				t.Errorf("TotalOps = %d, want %d", got, want)
			}

			// Occupancy: aggregate busy cycles equal the sum of granted
			// occupancies, and the per-link split both sums to the aggregate
			// and matches the occupancy granted on each link.
			var wantBusy uint64
			perLink := make([]uint64, ic.Links())
			for i, p := range plan {
				wantBusy += p.occupancy
				perLink[grants[i].link] += p.occupancy
			}
			if agg.BusyCycles != wantBusy {
				t.Errorf("aggregate BusyCycles = %d, want %d", agg.BusyCycles, wantBusy)
			}
			links := ic.LinkStats()
			if len(links) != ic.Links() {
				t.Fatalf("LinkStats has %d entries, Links() = %d", len(links), ic.Links())
			}
			var linkSum uint64
			for l, ls := range links {
				linkSum += ls.BusyCycles
				if ls.BusyCycles != perLink[l] {
					t.Errorf("link %d BusyCycles = %d, observer says %d", l, ls.BusyCycles, perLink[l])
				}
			}
			if linkSum != agg.BusyCycles {
				t.Errorf("per-link busy cycles sum to %d, aggregate is %d", linkSum, agg.BusyCycles)
			}

			// Grant and completion timing: no grant before Ready (including
			// any topology-added latency, now folded into the request), each
			// completion exactly occupancy after its grant.
			for i := range reqs {
				if g := grants[i].t; g < reqs[i].Ready {
					t.Errorf("req %d granted at %d before Ready %d", i, g, reqs[i].Ready)
				}
				if c, g := completes[i], grants[i].t; c != g+plan[i].occupancy {
					t.Errorf("req %d completed at %d, want grant %d + occupancy %d", i, c, g, plan[i].occupancy)
				}
			}

			// Per-link non-overlap and snoop ordering: on each link, a grant's
			// occupancy window ends (and its completion runs) before the next
			// grant on that link.
			lastEnd := make([]uint64, ic.Links())
			lastReq := make([]int, ic.Links())
			for l := range lastReq {
				lastReq[l] = -1
			}
			for _, e := range log {
				if e.kind != "grant" {
					continue
				}
				l := e.link
				if prev := lastReq[l]; prev >= 0 {
					if e.t < lastEnd[l] {
						t.Errorf("link %d: req %d granted at %d inside req %d's occupancy (ends %d)",
							l, e.req, e.t, prev, lastEnd[l])
					}
				}
				lastEnd[l] = e.t + plan[e.req].occupancy
				lastReq[l] = e.req
			}

			// Same-address serialization: all transactions on one line grant
			// on the same link, so their grant order is a total order.
			lineLink := make(map[uint64]int)
			for i, p := range plan {
				if l, ok := lineLink[p.addr]; ok && l != grants[i].link {
					t.Errorf("line %#x granted on links %d and %d", p.addr, l, grants[i].link)
				}
				lineLink[p.addr] = grants[i].link
			}

			// The log interleaves grant before complete per request.
			seenGrant := make(map[int]bool)
			for _, e := range log {
				switch e.kind {
				case "grant":
					seenGrant[e.req] = true
				case "complete":
					if !seenGrant[e.req] {
						t.Fatalf("req %d completed before its grant", e.req)
					}
				}
			}
		})
	}
}

// TestSingleBusMatchesRawBus pins the seam itself: the SingleBus fabric must
// produce exactly the schedule a bare bus.Bus produces for the same
// submissions — the fabric wraps the bus, it does not change it.
func TestSingleBusMatchesRawBus(t *testing.T) {
	type run struct{ log []string }
	drive := func(submit func(sched *fakeSched, reqs []*bus.Request)) run {
		var r run
		sched := &fakeSched{}
		plan := confPlan()
		reqs := make([]*bus.Request, len(plan))
		for i, p := range plan {
			i := i
			reqs[i] = &bus.Request{Ready: p.ready, Occupancy: p.occupancy,
				Class: p.class, Op: p.op, Addr: p.addr, Proc: p.proc}
			reqs[i].OnGrant = func(g uint64) { r.log = append(r.log, fmt.Sprintf("g %d %d", i, g)) }
			reqs[i].OnComplete = func(c uint64) { r.log = append(r.log, fmt.Sprintf("c %d %d", i, c)) }
		}
		submit(sched, reqs)
		sched.run()
		return r
	}

	viaSeam := drive(func(sched *fakeSched, reqs []*bus.Request) {
		ic, err := New(Config{}, confShift, sched, confProcs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			i, r := i, r
			sched.At(confPlan()[i].submitAt, func(now uint64) {
				if err := ic.Submit(now, r); err != nil {
					t.Error(err)
				}
			})
		}
	})
	raw := drive(func(sched *fakeSched, reqs []*bus.Request) {
		b, err := bus.New(sched, confProcs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			i, r := i, r
			sched.At(confPlan()[i].submitAt, func(now uint64) {
				if err := b.Submit(now, r); err != nil {
					t.Error(err)
				}
			})
		}
	})
	if fmt.Sprint(viaSeam.log) != fmt.Sprint(raw.log) {
		t.Errorf("seam and raw bus schedules differ:\nseam: %v\nraw:  %v", viaSeam.log, raw.log)
	}
}

// TestDisciplineSwapContentionFree is the metamorphic law of the service
// disciplines: on a contention-free schedule — each request submitted, ready,
// and fully drained before the next arrives — arbitration never has a choice,
// so FCFS and Priority must produce byte-identical schedules.
func TestDisciplineSwapContentionFree(t *testing.T) {
	drive := func(d bus.Discipline) []string {
		var log []string
		sched := &fakeSched{}
		ic, err := New(Config{Discipline: d}, confShift, sched, confProcs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			i := i
			at := uint64(i) * 1000 // far beyond any occupancy: never two pending
			r := &bus.Request{Ready: at, Occupancy: uint64(1 + i%8),
				Class: bus.Class(i % 3), Op: bus.Op(i % 4),
				Addr: uint64(i%4) << confShift, Proc: i % confProcs}
			r.OnGrant = func(g uint64) { log = append(log, fmt.Sprintf("g %d %d", i, g)) }
			r.OnComplete = func(c uint64) { log = append(log, fmt.Sprintf("c %d %d", i, c)) }
			sched.At(at, func(now uint64) {
				if err := ic.Submit(now, r); err != nil {
					t.Error(err)
				}
			})
		}
		sched.run()
		return log
	}
	prio, fcfs := drive(bus.Priority), drive(bus.FCFS)
	if fmt.Sprint(prio) != fmt.Sprint(fcfs) {
		t.Errorf("contention-free schedules differ:\npriority: %v\nfcfs:     %v", prio, fcfs)
	}
}

// TestDisciplinesDivergeUnderContention is the counterpart: with a demand
// request submitted after (but ready alongside) a writeback, Priority grants
// the demand first and FCFS the writeback, so the disciplines must not be
// secretly identical.
func TestDisciplinesDivergeUnderContention(t *testing.T) {
	order := func(d bus.Discipline) []string {
		var log []string
		sched := &fakeSched{}
		ic, err := New(Config{Discipline: d}, confShift, sched, 2)
		if err != nil {
			t.Fatal(err)
		}
		wb := &bus.Request{Ready: 10, Occupancy: 8, Class: bus.Writeback, Op: bus.OpWriteback, Proc: 0}
		wb.OnGrant = func(uint64) { log = append(log, "writeback") }
		demand := &bus.Request{Ready: 10, Occupancy: 8, Class: bus.Demand, Op: bus.OpFill, Proc: 1}
		demand.OnGrant = func(uint64) { log = append(log, "demand") }
		sched.At(0, func(now uint64) {
			if err := ic.Submit(now, wb); err != nil {
				t.Error(err)
			}
			if err := ic.Submit(now, demand); err != nil {
				t.Error(err)
			}
		})
		sched.run()
		return log
	}
	prio, fcfs := order(bus.Priority), order(bus.FCFS)
	if got, want := fmt.Sprint(prio), "[demand writeback]"; got != want {
		t.Errorf("priority order = %v, want %v", got, want)
	}
	if got, want := fmt.Sprint(fcfs), "[writeback demand]"; got != want {
		t.Errorf("fcfs order = %v, want %v", got, want)
	}
}

// TestDirectoryLookupLatency: the Directory topology delays each request's
// earliest grant by the home-node lookup, and only the Directory does.
func TestDirectoryLookupLatency(t *testing.T) {
	grantAt := func(cfg Config) uint64 {
		sched := &fakeSched{}
		ic, err := New(cfg, confShift, sched, 2)
		if err != nil {
			t.Fatal(err)
		}
		var g uint64
		r := &bus.Request{Ready: 100, Occupancy: 8, Class: bus.Demand, Op: bus.OpFill, Proc: 0}
		r.OnGrant = func(t uint64) { g = t }
		sched.At(0, func(now uint64) {
			if err := ic.Submit(now, r); err != nil {
				t.Error(err)
			}
		})
		sched.run()
		return g
	}
	if g := grantAt(Config{}); g != 100 {
		t.Errorf("single bus granted at %d, want 100", g)
	}
	if g := grantAt(Config{Kind: Directory}); g != 100+lookupCycles {
		t.Errorf("directory granted at %d, want 100+%d", g, lookupCycles)
	}
}
