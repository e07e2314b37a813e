package bus

import (
	"fmt"
	"math/bits"

	"busprefetch/internal/names"
)

// Scheduler lets the bus schedule future work on the simulation's event
// queue. internal/sim implements it.
type Scheduler interface {
	// At schedules fn to run at time t (>= current simulation time). Events
	// scheduled earlier run first; ties run in scheduling order.
	At(t uint64, fn func(now uint64))
}

// Class is an arbitration priority class.
type Class uint8

const (
	// Demand requests block a CPU: demand fetches, upgrades, and prefetches
	// a CPU is now stalled on.
	Demand Class = iota
	// Prefetch requests are speculative; they lose arbitration to demand.
	Prefetch
	// Writeback requests drain dirty victims; nobody waits on them.
	Writeback
	// NumClasses is the number of classes.
	NumClasses
)

var classNames = []string{"demand", "prefetch", "writeback"}

func (c Class) String() string { return names.Lookup("Class", classNames, int(c)) }

// Op classifies a request for traffic accounting.
type Op uint8

const (
	// OpFill is a data transfer that fills a cache line (from memory or
	// another cache).
	OpFill Op = iota
	// OpInvalidate is an address-only invalidation (a write to a Shared
	// line upgrading to Modified).
	OpInvalidate
	// OpWriteback is a dirty-line writeback to memory.
	OpWriteback
	// OpUpdate is a word-update broadcast: a write-update protocol's write
	// to a shared line, carrying the address and one word of data instead of
	// invalidating the remote copies.
	OpUpdate
	// NumOps is the number of ops.
	NumOps
)

var opNames = []string{"fill", "invalidate", "writeback", "update"}

func (o Op) String() string { return names.Lookup("Op", opNames, int(o)) }

// Discipline is the bus's arbitration service discipline.
type Discipline uint8

const (
	// Priority is the paper's machine (§3.3): all Demand-class requests are
	// considered before any Prefetch, and writebacks come last; within a
	// class, round-robin from the last winner.
	Priority Discipline = iota
	// FCFS grants strictly in submission order regardless of class — the
	// alternative service discipline of the queueing analyses in the related
	// work. A stalled CPU's demand fetch waits behind earlier prefetches and
	// writebacks.
	FCFS
	numDisciplines
)

var disciplineNames = []string{"priority", "fcfs"}

func (d Discipline) String() string { return names.Lookup("Discipline", disciplineNames, int(d)) }

// Valid reports whether d is a known discipline.
func (d Discipline) Valid() bool { return d < numDisciplines }

// Disciplines returns every discipline in declaration order.
func Disciplines() []Discipline { return []Discipline{Priority, FCFS} }

// ParseDiscipline resolves a discipline name ("priority", "fcfs"),
// case-insensitively.
func ParseDiscipline(name string) (Discipline, error) {
	i, err := names.Parse("discipline", disciplineNames, name)
	if err != nil {
		return Priority, fmt.Errorf("bus: %w", err)
	}
	return Discipline(i), nil
}

// Request is one bus transaction.
type Request struct {
	// Ready is the earliest time the request may be granted (issue time plus
	// the uncontended latency portion).
	Ready uint64
	// Occupancy is how many cycles the request holds the bus once granted.
	Occupancy uint64
	// Class is the arbitration priority. Promote can raise it later.
	Class Class
	// Op classifies the transaction for traffic accounting.
	Op Op
	// Addr is the line address the transaction concerns. The single bus
	// ignores it; multi-link interconnects route on it, so it must be stable
	// for the life of the request.
	Addr uint64
	// Proc is the requesting processor, used for round-robin fairness.
	// While the request is pending, Class and Proc index the bus's internal
	// queues and must not be mutated directly; use Promote to raise a
	// pending request's class.
	Proc int
	// OnGrant, if non-nil, runs at the grant time — the transaction's
	// serialization point, where the simulator performs snooping.
	OnGrant func(grant uint64)
	// OnComplete, if non-nil, runs when the occupancy ends (grant +
	// Occupancy) — where fills install their line.
	OnComplete func(complete uint64)

	seq     uint64
	pending bool
	granted bool
}

// Granted reports whether the request has been granted the bus.
func (r *Request) Granted() bool { return r.granted }

// Reset clears a completed (or never-submitted) request's bookkeeping so the
// same allocation can carry a new transaction — internal/sim pools its
// request structs to keep the per-fetch path allocation-free. Resetting a
// still-pending request is ignored; the subsequent Submit then fails with
// the double-submission error.
func (r *Request) Reset() {
	if r.pending {
		return
	}
	r.granted = false
	r.seq = 0
}

// Stats counts bus traffic.
type Stats struct {
	// BusyCycles is the total occupancy granted.
	BusyCycles uint64
	// Ops counts transactions by kind.
	Ops [NumOps]uint64
	// DemandGrants and PrefetchGrants split fills by the class they held at
	// grant time.
	DemandGrants   uint64
	PrefetchGrants uint64
}

// TotalOps returns the total number of bus transactions.
func (s *Stats) TotalOps() uint64 {
	var n uint64
	for _, v := range s.Ops {
		n += v
	}
	return n
}

// Observer receives every grant at the moment arbitration decides it: the
// grant time, the occupancy the winner will hold, its op, the arbitration
// class it held at the grant, and the requesting processor. The observability
// layer uses it to build bus-occupancy timelines; a nil observer (the
// default) costs one predictable branch per grant.
type Observer func(grant, occupancy uint64, op Op, class Class, proc int)

// Bus is the contended resource.
//
// Pending requests live in per-class, per-processor queues rather than one
// scanned slice: arbitration order is (class, round-robin distance from the
// last winner, submission order), so the winner is found by walking the
// processors of the highest non-empty class in round-robin order and taking
// the first ready request — no full scan, no mid-slice splice. A per-class
// occupancy mask (bit p set while processor p's queue is non-empty) lets the
// walk visit only processors with requests: rotate the mask so the processor
// after the last winner is bit 0, and the set bits in ascending order are
// the round-robin order. Each queue holds one processor's same-class
// requests in submission (seq) order; the queues are tiny (a processor has
// at most one outstanding demand fetch, a prefetch-buffer-depth of
// prefetches, and a handful of writebacks), so the occasional mid-queue
// removal is a short copy within one small slice.
type Bus struct {
	sched      Scheduler
	nproc      int
	freeAt     uint64
	lastWin    int // processor that won the previous arbitration
	observer   Observer
	seq        uint64
	discipline Discipline

	// queues[class][proc] holds that processor's pending requests of that
	// class in submission order. occupied[class] has bit proc set exactly
	// when that queue is non-empty, so arbitration skips empty classes and
	// empty queues without touching them; npending is the total.
	queues   [NumClasses][]procQueue
	occupied [NumClasses]uint64
	npending int

	// attemptAt is the earliest outstanding grant-attempt event, or noAttempt.
	attemptAt uint64
	// completionDone guards the cycle at which the in-service transaction
	// ends: independently scheduled arbitration events can fire at exactly
	// freeAt *before* the completion callback installs the transaction's
	// results, and a grant issued then would snoop stale cache state. No
	// grant may happen at freeAt until the completion callback has run.
	completionDone bool
	// inService is the granted transaction whose occupancy is running; its
	// completion event is the single outstanding call of completeFn.
	inService *Request

	// attemptFn and completeFn are the bus's event callbacks bound once at
	// construction, so scheduling them does not allocate a method-value
	// closure per event.
	attemptFn  func(uint64)
	completeFn func(uint64)

	stats Stats
}

// procQueue is one processor's pending requests of one class, in submission
// order.
type procQueue []*Request

const noAttempt = ^uint64(0)

// maxProcs is the processor limit: the occupancy masks are uint64.
const maxProcs = 64

// New creates a bus for nproc processors using sched for future events,
// arbitrating with the paper's Priority discipline.
func New(sched Scheduler, nproc int) (*Bus, error) {
	return NewWithDiscipline(sched, nproc, Priority)
}

// NewWithDiscipline creates a bus arbitrating under the given service
// discipline.
func NewWithDiscipline(sched Scheduler, nproc int, d Discipline) (*Bus, error) {
	if sched == nil {
		return nil, fmt.Errorf("bus: nil scheduler")
	}
	if nproc <= 0 || nproc > maxProcs {
		return nil, fmt.Errorf("bus: processor count %d outside [1, %d]", nproc, maxProcs)
	}
	if !d.Valid() {
		return nil, fmt.Errorf("bus: unknown discipline %d", int(d))
	}
	b := &Bus{sched: sched, nproc: nproc, lastWin: nproc - 1, discipline: d, attemptAt: noAttempt, completionDone: true}
	for c := range b.queues {
		b.queues[c] = make([]procQueue, nproc)
	}
	b.attemptFn = b.attempt
	b.completeFn = b.complete
	return b, nil
}

// Discipline returns the bus's service discipline.
func (b *Bus) Discipline() Discipline { return b.discipline }

// Stats returns the traffic counters accumulated so far.
func (b *Bus) Stats() Stats { return b.stats }

// SetObserver installs (or, with nil, removes) the grant observer.
func (b *Bus) SetObserver(fn Observer) { b.observer = fn }

// Pending returns the number of requests awaiting a grant.
func (b *Bus) Pending() int { return b.npending }

// Submit queues a request. now is the current simulation time; the request's
// Ready is clamped up to now. A nil, re-submitted, or zero-occupancy fill
// request is rejected with an error — the request is not queued and the bus
// state is unchanged, so the caller can fail its run with context instead of
// crashing the process.
func (b *Bus) Submit(now uint64, r *Request) error {
	if r == nil {
		return fmt.Errorf("bus: nil request at cycle %d", now)
	}
	if r.pending || r.granted {
		return fmt.Errorf("bus: %v %v request from proc %d submitted twice at cycle %d", r.Class, r.Op, r.Proc, now)
	}
	if r.Proc < 0 || r.Proc >= b.nproc {
		return fmt.Errorf("bus: request from proc %d outside [0, %d) at cycle %d", r.Proc, b.nproc, now)
	}
	if r.Ready < now {
		r.Ready = now
	}
	b.seq++
	r.seq = b.seq
	r.pending = true
	b.enqueue(r, len(b.queues[r.Class][r.Proc]))
	b.scheduleAttempt(now, max(r.Ready, b.freeAt))
	return nil
}

// remove drops the request at index i of the given class/proc queue. The
// queue is small (bounded by one processor's outstanding requests of one
// class), so the copy is a few pointer moves; the vacated tail slot is
// cleared so the queue does not pin the request for the GC.
func (b *Bus) remove(class Class, proc, i int) {
	q := b.queues[class][proc]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	b.queues[class][proc] = q[:len(q)-1]
	if len(q) == 1 {
		b.occupied[class] &^= 1 << uint(proc)
	}
	b.npending--
}

// enqueue inserts r at index at of its class/proc queue.
func (b *Bus) enqueue(r *Request, at int) {
	q := append(b.queues[r.Class][r.Proc], nil)
	copy(q[at+1:], q[at:])
	q[at] = r
	b.queues[r.Class][r.Proc] = q
	b.occupied[r.Class] |= 1 << uint(r.Proc)
	b.npending++
}

// Promote raises a still-pending request to Demand class (a CPU is now
// blocked on a previously speculative prefetch). It is a no-op once granted.
func (b *Bus) Promote(r *Request) {
	if !r.pending || r.Class == Demand {
		return
	}
	q := b.queues[r.Class][r.Proc]
	for i, p := range q {
		if p == r {
			b.remove(r.Class, r.Proc, i)
			break
		}
	}
	r.Class = Demand
	// Re-queue in submission order: the promoted request keeps its original
	// seq, so it slots in ahead of any demand request submitted after it.
	dq := b.queues[Demand][r.Proc]
	at := len(dq)
	for at > 0 && dq[at-1].seq > r.seq {
		at--
	}
	b.enqueue(r, at)
}

// Cancel removes a still-pending request (unused by the core simulator but
// available to extensions such as prefetch dropping). It reports whether the
// request was removed before being granted.
func (b *Bus) Cancel(r *Request) bool {
	if !r.pending {
		return false
	}
	for i, p := range b.queues[r.Class][r.Proc] {
		if p == r {
			b.remove(r.Class, r.Proc, i)
			r.pending = false
			return true
		}
	}
	return false
}

func (b *Bus) scheduleAttempt(now, t uint64) {
	if t < now {
		t = now
	}
	if b.attemptAt <= t {
		return // an earlier or equal attempt is already outstanding
	}
	b.attemptAt = t
	b.sched.At(t, b.attemptFn)
}

// attempt runs one arbitration round at time now.
func (b *Bus) attempt(now uint64) {
	if b.attemptAt == now || b.attemptAt < now {
		b.attemptAt = noAttempt
	}
	if b.freeAt > now || (b.freeAt == now && !b.completionDone) {
		// Busy, or the in-service transaction ends this cycle but has not
		// installed its results yet; its completion will re-arm arbitration.
		return
	}
	r, class, proc, idx := b.pick(now)
	if r == nil {
		// Nothing ready yet: re-arm at the earliest future Ready.
		earliest := noAttempt
		for c := range b.queues {
			for m := b.occupied[c]; m != 0; m &= m - 1 {
				for _, p := range b.queues[c][bits.TrailingZeros64(m)] {
					if p.Ready < earliest {
						earliest = p.Ready
					}
				}
			}
		}
		if earliest != noAttempt {
			b.scheduleAttempt(now, earliest)
		}
		return
	}
	b.remove(class, proc, idx)
	r.pending = false
	r.granted = true
	b.lastWin = r.Proc
	b.freeAt = now + r.Occupancy
	b.completionDone = false
	b.stats.BusyCycles += r.Occupancy
	b.stats.Ops[r.Op]++
	if r.Op == OpFill {
		if r.Class == Demand {
			b.stats.DemandGrants++
		} else {
			b.stats.PrefetchGrants++
		}
	}
	if b.observer != nil {
		b.observer(now, r.Occupancy, r.Op, r.Class, r.Proc)
	}
	if r.OnGrant != nil {
		r.OnGrant(now)
	}
	b.inService = r
	b.sched.At(b.freeAt, b.completeFn)
}

// complete ends the in-service transaction's occupancy: it runs the
// transaction's OnComplete (fills install their line here, before any snoop
// of the next grant can observe the cache), then runs the next arbitration
// round. Exactly one completion event is outstanding per grant, so the
// single inService field and the bound completeFn replace the per-grant
// closure the old implementation allocated.
func (b *Bus) complete(t uint64) {
	r := b.inService
	b.inService = nil
	b.completionDone = true
	if r.OnComplete != nil {
		r.OnComplete(t)
	}
	b.attempt(t)
}

// pick selects the winning pending request at time now, or nil. Under the
// Priority discipline the selection order is: highest class (Demand <
// Prefetch < Writeback numerically), then round-robin distance from the last
// winner, then submission order. With per-class per-proc queues that order is
// positional: walk the occupied processors of each class starting just past
// the last winner, and within a processor's queue (kept in submission order)
// take the first ready entry. Rotating the occupancy mask right by
// lastWin+1 makes the round-robin distance of processor p bit p's position,
// so the walk is a trailing-zeros count per occupied processor. Bits at or
// above nproc are never set, so rotating modulo 64 rather than nproc visits
// the same processors in the same order.
func (b *Bus) pick(now uint64) (*Request, Class, int, int) {
	if b.discipline == FCFS {
		return b.pickFCFS(now)
	}
	start := b.lastWin + 1
	for c := Class(0); c < NumClasses; c++ {
		for m := bits.RotateLeft64(b.occupied[c], -start); m != 0; m &= m - 1 {
			p := (start + bits.TrailingZeros64(m)) & (maxProcs - 1)
			for i, r := range b.queues[c][p] {
				if r.Ready <= now {
					return r, c, p, i
				}
			}
		}
	}
	return nil, 0, 0, 0
}

// pickFCFS selects the ready request with the lowest submission seq across
// every class and processor — strict arrival order, classes ignored. Each
// queue is kept in submission order, so its first ready entry is its
// lowest-seq ready candidate and the scan can stop there; the winner is the
// minimum of those per-queue candidates.
func (b *Bus) pickFCFS(now uint64) (*Request, Class, int, int) {
	var (
		best     *Request
		bc       Class
		bp, bi   int
		bestSeq  = ^uint64(0)
		haveBest = false
	)
	for c := Class(0); c < NumClasses; c++ {
		for m := b.occupied[c]; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			for i, r := range b.queues[c][p] {
				if r.Ready > now {
					continue
				}
				if !haveBest || r.seq < bestSeq {
					best, bc, bp, bi, bestSeq, haveBest = r, c, p, i, r.seq, true
				}
				break
			}
		}
	}
	if !haveBest {
		return nil, 0, 0, 0
	}
	return best, bc, bp, bi
}
