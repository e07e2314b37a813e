package sim

import (
	"fmt"

	"busprefetch/internal/bus"
	"busprefetch/internal/cache"
	"busprefetch/internal/check"
	"busprefetch/internal/coherence"
	"busprefetch/internal/memory"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/trace"
)

// yieldQuantum bounds how far a processor's local clock may run ahead of the
// global event clock before it yields back to the scheduler. Processors
// execute runs of hits without touching the bus; yielding keeps remote
// invalidations from being observed more than ~yieldQuantum cycles late,
// comfortably inside the 100-cycle memory latency.
const yieldQuantum = 64

// inflight is an outstanding fetch (demand or prefetch) for one line. The
// bus request is embedded, and completed inflights return to a per-processor
// free list (with their OnGrant/OnComplete closures bound once, at first
// allocation), so the per-fetch hot path allocates nothing after the pool
// warms up — a processor's outstanding fetches are bounded by the prefetch
// buffer depth plus one blocked demand fetch.
type inflight struct {
	la         memory.Addr
	word       int
	excl       bool
	isPrefetch bool
	req        bus.Request
	// cpuWaiting is true when the CPU is blocked on this fetch: always for
	// demand fetches, and for prefetches a demand access has merged into.
	cpuWaiting bool
	// sharers records, at the bus grant (the coherence point), whether any
	// other cache held the line; it picks Shared vs Exclusive on fill.
	sharers bool
}

// writeOp is the bus operation a blocked write owes (invalidation upgrade or
// word-update broadcast). The CPU blocks until it completes, so one reusable
// struct per processor — its request callbacks bound at construction —
// serves every write op without allocating.
type writeOp struct {
	la     memory.Addr
	word   int
	action coherence.WriteAction
	failed bool
	req    bus.Request
}

// buffered is one line in the non-snooping prefetch buffer. sharers records
// whether any other cache held the line at the fetch's bus grant: a buffer
// hit must then install Shared, not Exclusive — installing private-clean
// while remote Shared copies exist would let a later silent write break the
// single-owner invariant (a bug the internal/check pre-snoop verification
// caught in this exact path).
type buffered struct {
	la      memory.Addr
	sharers bool
}

// proc replays one processor's event stream through a chunk cursor:
// stream is the current chunk, pc the position within it, and base the
// absolute index of the chunk's first event.
type proc struct {
	s      *simulator
	id     int
	stream trace.Stream
	cache  *cache.Cache
	pc     int
	base   int
	clock  uint64
	stats  ProcStats

	// it feeds the cursor; it is nil once the stream is exhausted.
	// srcFailed latches an inline-validation failure so the processor
	// never advances past it.
	it        trace.Iterator
	srcFailed bool
	// held and barSeen back the inline structural checks (trace.Validate's
	// rules, enforced as events retire): held tracks the locks this
	// processor holds, barSeen its barrier arrivals (checked against
	// simulator.barLog and simulator.minEndBarriers).
	held    map[memory.Addr]bool
	barSeen int

	// inflight holds the outstanding fetches (at most the prefetch buffer
	// depth plus one blocked demand fetch — a dozen and change), so lookup
	// by line address is a short linear scan, cheaper and allocation-free
	// compared to the map it replaces. inflightFree pools completed entries
	// for reuse; wop is the single reusable write-op; wbFree pools
	// writeback requests, each returning itself on completion.
	inflight            []*inflight
	inflightFree        []*inflight
	wop                 writeOp
	wbFree              []*bus.Request
	outstandingPrefetch int
	waitingForSlot      bool
	// runFn is the run method bound once, so scheduling a continuation does
	// not allocate a method value per event.
	runFn func(uint64)
	// victim is the optional fully-associative victim cache.
	victim *cache.Cache
	// streamBuf is the FIFO prefetch buffer of PrefetchToBuffer mode, in
	// arrival order. The buffer does not snoop; to stay coherent, an entry
	// is dropped as soon as any remote processor touches the line with a bus
	// fill or invalidation, and each entry remembers whether the line was
	// shared at its fetch's grant so a buffer hit installs the right state.
	streamBuf []buffered
	// wasted records line addresses whose prefetched-but-unused copy was
	// displaced, so the eventual demand miss is classified "prefetched".
	wasted map[memory.Addr]bool
	// online is this processor's online prefetch engine (Config.Online);
	// nil when disabled, and every use is behind a nil check so the
	// oracle path is untouched. cands is the reused candidate buffer
	// passed to Observe.
	online prefetch.Engine
	cands  []prefetch.Candidate

	// Per-event progress flags; reset when pc advances. They make event
	// handlers idempotent across block/resume cycles.
	gapDone     bool
	refCounted  bool
	missCounted bool
	atBarrier   bool
	// onlineDone marks that the online engine has observed the current
	// event, so a blocked access's retries do not re-train it.
	onlineDone bool

	// writeOpDone is set when the blocked write's bus operation (upgrade or
	// update broadcast) completed successfully, so the retry must finish the
	// access rather than consult WriteHit again — under a write-update
	// protocol the post-broadcast state (SharedMod) would demand another
	// broadcast, looping forever. Consumed by the next demandAccess.
	writeOpDone bool

	// releases and fills are fault-injection ordinals: lock releases
	// performed and line fills installed, matched against Config.Faults.
	releases int
	fills    int

	waitStart uint64
	finished  bool
}

func newProc(s *simulator, id int) *proc {
	p := &proc{
		s:      s,
		id:     id,
		cache:  s.tags.NewCache(id),
		held:   make(map[memory.Addr]bool),
		wasted: make(map[memory.Addr]bool),
		online: s.cfg.Online.NewEngine(s.cfg.Geometry),
	}
	p.runFn = p.run
	p.wop.req.OnGrant = func(g uint64) { p.grantWriteOp(g) }
	p.wop.req.OnComplete = func(t uint64) { p.completeWriteOp(t) }
	if s.victimTags != nil {
		p.victim = s.victimTags.NewCache(id)
	}
	return p
}

// findInflight returns the outstanding fetch for line la, or nil.
func (p *proc) findInflight(la memory.Addr) *inflight {
	for _, inf := range p.inflight {
		if inf.la == la {
			return inf
		}
	}
	return nil
}

// newInflight takes an entry from the free list or allocates one, binding
// its bus-request callbacks exactly once per allocation.
func (p *proc) newInflight() *inflight {
	if n := len(p.inflightFree); n > 0 {
		inf := p.inflightFree[n-1]
		p.inflightFree[n-1] = nil
		p.inflightFree = p.inflightFree[:n-1]
		return inf
	}
	inf := &inflight{}
	inf.req.OnGrant = func(g uint64) { p.grantFetch(inf, g) }
	inf.req.OnComplete = func(t uint64) { p.completeFetch(inf, t) }
	return inf
}

// releaseInflight removes inf from the outstanding list and returns it to
// the free list. The caller must be done reading its fields: the next
// startFetch may reuse the struct immediately.
func (p *proc) releaseInflight(inf *inflight) {
	for i, o := range p.inflight {
		if o == inf {
			last := len(p.inflight) - 1
			copy(p.inflight[i:], p.inflight[i+1:])
			p.inflight[last] = nil
			p.inflight = p.inflight[:last]
			break
		}
	}
	p.inflightFree = append(p.inflightFree, inf)
}

// dropBuffered removes la from the non-snooping prefetch buffer; a remote
// bus operation on the line means the buffered copy can no longer be trusted.
func (p *proc) dropBuffered(la memory.Addr, now uint64) {
	for i, b := range p.streamBuf {
		if b.la == la {
			p.streamBuf = append(p.streamBuf[:i], p.streamBuf[i+1:]...)
			p.s.c.StreamBufferDrops++
			// The remote action killed the buffered copy before any use — the
			// conservative drop is the buffer's form of invalidation.
			if r := p.s.rec; r != nil {
				r.PrefetchInvalidated(p.id, uint64(la), now)
			}
			return
		}
	}
}

// bufferIndex returns la's position in the prefetch buffer, or -1.
func (p *proc) bufferIndex(la memory.Addr) int {
	for i, b := range p.streamBuf {
		if b.la == la {
			return i
		}
	}
	return -1
}

// run executes events until the processor blocks, yields, or finishes. It is
// both the initial entry point and the continuation invoked after every wait.
func (p *proc) run(now uint64) {
	if now > p.clock {
		p.clock = now
	}
	entry := p.clock
	for {
		if p.pc >= len(p.stream) && !p.refill() {
			return
		}
		e := p.stream[p.pc]
		if !p.gapDone {
			p.clock += uint64(e.Gap)
			p.stats.BusyCycles += uint64(e.Gap)
			p.gapDone = true
			// Absorbing the gap is progress: a gap of any size is one event,
			// so even multi-billion-cycle gaps cannot trip the watchdog.
			p.s.progress++
			// A long instruction gap can carry the local clock far past the
			// global clock; yield before touching memory so remote coherence
			// actions scheduled in the meantime are visible to this access.
			if p.clock >= entry+yieldQuantum {
				p.s.eng.At(p.clock, p.runFn)
				return
			}
		}
		var blocked bool
		switch e.Kind {
		case trace.Read, trace.Write:
			isWrite := e.Kind == trace.Write
			// A first visit that hits and owes the bus nothing retires
			// here, without the in-flight scan or a blocked-access flag.
			if !p.refCounted {
				if line, hit := p.cache.Probe(e.Addr); hit && p.retireHit(line, e.Addr, isWrite, false) {
					p.s.c.countRef(isWrite, false)
					break
				}
			}
			blocked = p.demandAccess(e.Addr, isWrite, false)
		case trace.Prefetch:
			blocked = p.prefetchOp(e.Addr, false)
		case trace.PrefetchExcl:
			blocked = p.prefetchOp(e.Addr, true)
		case trace.Lock:
			blocked = p.lockOp(e.Addr)
		case trace.Unlock:
			blocked = p.unlockOp(e.Addr)
		case trace.Barrier:
			blocked = p.barrierOp(e.Addr)
		default:
			// The inline unknown-kind check of trace.Validate's rules.
			p.srcFailed = true
			p.s.fail(fmt.Errorf("sim: proc %d event %d has unknown kind %d", p.id, p.base+p.pc, int(e.Kind)))
			return
		}
		// The online engine observes each demand reference exactly once,
		// after its first processing pass — the miss flag is settled by
		// then — whether or not the access blocked. Sync accesses (lock,
		// unlock, barrier) are not demand references and are never shown.
		if p.online != nil && !p.onlineDone && e.Kind.IsDemand() {
			p.onlineDone = true
			p.onlineObserve(e)
		}
		if blocked {
			return
		}
		if (e.Kind == trace.Lock || e.Kind == trace.Unlock) && !p.checkLock(e) {
			return
		}
		p.pc++
		p.s.progress++
		p.gapDone, p.refCounted, p.missCounted, p.atBarrier, p.onlineDone = false, false, false, false, false
		if p.clock >= entry+yieldQuantum {
			p.s.eng.At(p.clock, p.runFn)
			return
		}
	}
}

// refill advances the cursor to the next non-empty chunk of the
// processor's stream. It returns false when no events remain: either
// the stream is exhausted (the processor finishes, after the end-of-
// stream validation) or the stream failed inline validation (the run
// aborts through the recorded error at the next dispatch).
func (p *proc) refill() bool {
	if p.srcFailed {
		return false
	}
	for p.it != nil {
		chunk := p.it.Next()
		if chunk == nil {
			p.it = nil
			break
		}
		if len(chunk) == 0 {
			continue
		}
		p.base += len(p.stream)
		p.stream, p.pc = chunk, 0
		return true
	}
	if len(p.held) != 0 {
		p.srcFailed = true
		p.s.fail(fmt.Errorf("sim: proc %d stream ends holding %d locks", p.id, len(p.held)))
		return false
	}
	if p.barSeen < len(p.s.barLog) {
		// A peer is at (or past) a barrier this processor will never
		// reach: without this check the peer waits until the event queue
		// drains and the run reports a stall instead of the trace bug.
		p.srcFailed = true
		p.s.fail(fmt.Errorf("sim: proc %d stream ends after %d barriers, another processor has %d",
			p.id, p.barSeen, len(p.s.barLog)))
		return false
	}
	if p.barSeen < p.s.minEndBarriers {
		p.s.minEndBarriers = p.barSeen
	}
	if !p.finished {
		p.finished = true
		p.stats.FinishTime = p.clock
	}
	return false
}

// checkLock enforces the lock-nesting rules of trace.Validate as a lock
// or unlock retires (retirement is the one point each event passes
// exactly once, whatever blocking and retrying preceded it). It returns
// false when the event violates them; the run aborts.
func (p *proc) checkLock(e trace.Event) bool {
	switch e.Kind {
	case trace.Lock:
		if p.held[e.Addr] {
			p.srcFailed = true
			p.s.fail(fmt.Errorf("sim: proc %d event %d re-acquires held lock 0x%x", p.id, p.base+p.pc, uint64(e.Addr)))
			return false
		}
		p.held[e.Addr] = true
	case trace.Unlock:
		if !p.held[e.Addr] {
			p.srcFailed = true
			p.s.fail(fmt.Errorf("sim: proc %d event %d releases unheld lock 0x%x", p.id, p.base+p.pc, uint64(e.Addr)))
			return false
		}
		delete(p.held, e.Addr)
	}
	return true
}

// onlinePC derives the engine's PC proxy from a demand event. The traces
// carry no program counter; references from the same static access site
// share the generator-assigned instruction gap that precedes them, so
// (gap, read/write) identifies a site well enough for PC-indexed tables —
// and, being address-independent, keeps engine decisions invariant under
// address relabelings.
func onlinePC(e trace.Event) uint64 {
	pc := uint64(e.Gap) << 1
	if e.Kind == trace.Write {
		pc |= 1
	}
	return pc
}

// onlineObserve shows a demand reference to the online engine and issues
// the candidates it returns.
func (p *proc) onlineObserve(e trace.Event) {
	r := prefetch.Ref{
		PC:    onlinePC(e),
		Addr:  e.Addr,
		Line:  p.s.geom.LineAddr(e.Addr),
		Write: e.Kind == trace.Write,
		Miss:  p.missCounted,
	}
	p.cands = p.online.Observe(r, p.cands[:0])
	p.s.c.OnlineEmitted += uint64(len(p.cands))
	for _, c := range p.cands {
		p.onlineIssue(c)
	}
}

// onlineIssue launches one engine candidate as a prefetch fetch, filtered
// as a prefetch instruction is (prefetchOp). The one difference is the full
// issue buffer: an instruction stalls the CPU for a slot, an online engine
// just loses the candidate.
func (p *proc) onlineIssue(c prefetch.Candidate) {
	la := c.Line
	if inflight, held := p.prefetched(la); inflight || held {
		p.s.c.OnlineFiltered++
		return
	}
	if p.outstandingPrefetch >= p.s.cfg.PrefetchBufferDepth {
		p.s.c.OnlineDropped++
		return
	}
	delete(p.wasted, la) // a fresh prefetch supersedes the wasted record
	p.s.c.OnlineIssued++
	p.startFetch(la, c.Excl, p.s.geom.WordIndex(la), true, bus.Prefetch)
}

// demandAccess performs a demand read or write. It returns true when the CPU
// must block (miss, upgrade, or merge with an in-flight prefetch); the
// continuation re-enters through run and retries the access, which then hits.
func (p *proc) demandAccess(a memory.Addr, isWrite, isSync bool) (blocked bool) {
	if !p.refCounted {
		p.refCounted = true
		p.s.c.countRef(isWrite, isSync)
	}
	// A set writeOpDone means this access's own broadcast just completed:
	// the write must now finish, not be charged again. The flag is consumed
	// here whatever the retry finds (a lost race leaves the line invalid and
	// the retry falls through to the miss path).
	opDone := p.writeOpDone
	p.writeOpDone = false
	line, hit := p.cache.Probe(a)
	if hit {
		if p.retireHit(line, a, isWrite, opDone) {
			return false
		}
		// The protocol decides what the write owes the bus: an
		// invalidation upgrade or a word-update broadcast.
		p.startWriteOp(a, p.s.geom.LineAddr(a), p.s.tab.writeAct[line.State])
		return true
	}
	la := p.s.geom.LineAddr(a)
	if inf := p.findInflight(la); inf != nil {
		// A prefetch for this line is still in flight: merge with it and
		// stall until it completes. The transaction keeps its prefetch
		// arbitration class — the paper's round-robin arbiter prioritizes
		// by request type, so a prefetch the CPU has since blocked on
		// still yields to demand fetches, which is what makes
		// prefetch-in-progress misses grow costly as the bus loads up.
		if !p.missCounted {
			p.missCounted = true
			p.s.c.CPUMisses[PrefetchInProgress]++
			p.s.attributeMiss(la, PrefetchInProgress, false)
			if r := p.s.rec; r != nil && inf.isPrefetch {
				r.PrefetchMerged(p.id, uint64(la), p.clock)
			}
		}
		inf.cpuWaiting = true
		p.waitStart = p.clock
		return true
	}
	// A victim-cache hit swaps the line back into the data cache: one
	// extra cycle, no bus operation, and no CPU miss.
	if p.victim != nil {
		if vl := p.victim.Lookup(la); vl != nil && vl.State.Valid() {
			st := vl.State
			p.victim.SnoopInvalidate(la, cache.NoInvalidatingWord)
			nl, ev := p.cache.Allocate(la)
			nl.State = st
			p.handleEviction(ev, p.clock)
			p.s.c.VictimHits++
			p.clock++ // the swap penalty
			p.stats.BusyCycles++
			p.finishHit(nl, a, isWrite)
			return false
		}
	}
	// A prefetch-buffer hit moves the buffered line into the cache. Because
	// any remote bus operation on the line drops the entry, a surviving
	// entry's sharedness is exactly what its fetch observed at the grant: the
	// line enters privately only when no other cache held it then.
	if idx := p.bufferIndex(la); idx >= 0 {
		entry := p.streamBuf[idx]
		p.streamBuf = append(p.streamBuf[:idx], p.streamBuf[idx+1:]...)
		if r := p.s.rec; r != nil {
			r.PrefetchFirstUse(p.id, uint64(la), p.clock)
		}
		if p.online != nil {
			p.online.Useful(la)
		}
		nl, ev := p.cache.Allocate(la)
		// The install state is whatever the protocol gives the original
		// (read) prefetch fill, given the sharers observed at its grant.
		nl.State = p.s.tab.fill[fillIndex(false, true, entry.sharers)]
		p.handleEviction(ev, p.clock)
		p.s.c.StreamBufferHits++
		p.clock++ // the move penalty
		p.stats.BusyCycles++
		p.finishHit(nl, a, isWrite)
		if isWrite {
			// A non-exclusive install still owes the write its bus
			// operation (invalidation or update).
			if act := p.s.tab.writeAct[nl.State]; act != coherence.WriteSilent {
				p.startWriteOp(a, la, act)
				return true
			}
		}
		return false
	}
	p.classifyMiss(line, la)
	p.startFetch(la, isWrite, p.s.geom.WordIndex(a), false, bus.Demand)
	p.waitStart = p.clock
	return true
}

// retireHit completes an access whose probe hit line, unless it is a write
// that still owes the bus an operation (opDone: its operation already
// completed); it reports whether the access retired. Both callers probe
// before the in-flight scan, and skip it on a hit: a line valid in the data
// cache is never in flight, because every fetch starts from a miss and its
// completion ends the fetch before it installs the line. CheckInvariants
// verifies that.
func (p *proc) retireHit(line *cache.Line, a memory.Addr, isWrite, opDone bool) bool {
	if p.s.cfg.CheckInvariants {
		p.checkNotInFlight(line, a)
	}
	if isWrite && !opDone && p.s.tab.writeAct[line.State] != coherence.WriteSilent {
		return false
	}
	p.finishHit(line, a, isWrite)
	return true
}

// checkNotInFlight fails the run with a *check.Violation when a, which hit
// line, has a fetch in flight.
func (p *proc) checkNotInFlight(line *cache.Line, a memory.Addr) {
	if la := p.s.geom.LineAddr(a); p.findInflight(la) != nil {
		p.s.fail(&check.Violation{Cycle: p.clock, Line: la, Rule: "hit-in-flight", Detail: fmt.Sprintf(
			"proc %d hits a %v line it has a fetch in flight for", p.id, line.State)})
	}
}

// finishHit completes a hitting access: one cycle, word-use bookkeeping, and
// any silent write transition the protocol allows (Illinois' Exclusive to
// Modified being the canonical one).
func (p *proc) finishHit(line *cache.Line, a memory.Addr, isWrite bool) {
	p.clock++
	p.stats.BusyCycles++
	line.WordsAccessed |= p.s.geom.WordMask(a)
	if line.PrefetchedUnused {
		line.PrefetchedUnused = false
		if r := p.s.rec; r != nil {
			r.PrefetchFirstUse(p.id, uint64(p.s.geom.LineAddr(a)), p.clock)
		}
		if p.online != nil {
			p.online.Useful(p.s.geom.LineAddr(a))
		}
	}
	if isWrite {
		if tab := &p.s.tab; tab.writeAct[line.State] == coherence.WriteSilent {
			line.State = tab.writeNext[line.State]
		}
	}
}

// classifyMiss records the CPU miss in the paper's Figure 3 taxonomy.
func (p *proc) classifyMiss(line *cache.Line, la memory.Addr) {
	if p.missCounted {
		return
	}
	p.missCounted = true
	inval := line != nil && line.HasTag() && !line.State.Valid()
	var prefd, falseSharing bool
	if inval {
		prefd = line.PrefetchedUnused
		if w := line.InvalidatingWord; w != cache.NoInvalidatingWord && line.WordsAccessed&(1<<uint(w)) == 0 {
			p.s.c.FalseSharing++
			falseSharing = true
		}
	} else {
		prefd = p.wasted[la]
	}
	delete(p.wasted, la)
	var class MissClass
	switch {
	case inval && prefd:
		class = InvalPref
	case inval:
		class = InvalNotPref
	case prefd:
		class = NonSharingPref
	default:
		class = NonSharingNotPref
	}
	p.s.c.CPUMisses[class]++
	p.s.attributeMiss(la, class, falseSharing)
}

// startFetch launches a line fetch on the bus. The transaction's uncontended
// phase (address + memory lookup) takes MemLatency-TransferCycles cycles;
// the contended data transfer then occupies the bus for TransferCycles.
func (p *proc) startFetch(la memory.Addr, excl bool, word int, isPrefetch bool, class bus.Class) {
	inf := p.newInflight()
	inf.la, inf.word = la, word
	inf.excl, inf.isPrefetch = excl, isPrefetch
	inf.cpuWaiting = !isPrefetch
	inf.sharers = false
	inf.req.Reset()
	inf.req.Ready = p.clock + p.s.uncont
	inf.req.Occupancy = uint64(p.s.cfg.TransferCycles)
	inf.req.Class = class
	inf.req.Op = bus.OpFill
	inf.req.Addr = uint64(la)
	inf.req.Proc = p.id
	p.inflight = append(p.inflight, inf)
	if isPrefetch {
		p.s.c.PrefetchFetches++
		p.outstandingPrefetch++
		if r := p.s.rec; r != nil {
			r.PrefetchIssued(p.id, uint64(la), p.clock)
		}
	}
	if err := p.s.ic.Submit(p.clock, &inf.req); err != nil {
		p.s.fail(err)
	}
}

// grantFetch performs a fetch's coherence actions at its bus grant.
func (p *proc) grantFetch(inf *inflight, g uint64) {
	// The grant is the serialization point: resident states must already be
	// legal here, before snooping repairs remote copies and could mask a
	// corrupted state.
	if p.s.cfg.CheckInvariants {
		p.s.checkLine(g, inf.la)
	}
	if r := p.s.rec; r != nil && inf.isPrefetch {
		r.PrefetchGranted(p.id, uint64(inf.la), g)
	}
	inf.sharers = p.s.snoopFetch(g, p.id, inf.la, inf.excl, inf.word)
}

// completeFetch installs a fetched line and resumes whoever was waiting.
func (p *proc) completeFetch(inf *inflight, t uint64) {
	p.s.progress++
	// Copy what the rest of the completion needs, then recycle the entry:
	// resuming the CPU below may start the next fetch, which is free to
	// reuse this struct.
	la, excl, isPrefetch := inf.la, inf.excl, inf.isPrefetch
	cpuWaiting, sharers := inf.cpuWaiting, inf.sharers
	p.releaseInflight(inf)
	if isPrefetch && !cpuWaiting && p.s.cfg.PrefetchTarget == PrefetchToBuffer {
		// Buffer-mode prefetch: the line lands in the FIFO prefetch buffer,
		// not the cache. The buffer never holds coherence state; remote
		// writes drop entries.
		p.outstandingPrefetch--
		cap := p.s.cfg.StreamBufferLines
		if cap == 0 {
			cap = 16
		}
		if r := p.s.rec; r != nil {
			r.PrefetchFilled(p.id, uint64(la), t)
		}
		if p.bufferIndex(la) < 0 {
			if len(p.streamBuf) >= cap {
				if r := p.s.rec; r != nil {
					r.PrefetchEvicted(p.id, uint64(p.streamBuf[0].la), t)
				}
				p.streamBuf = p.streamBuf[1:] // FIFO eviction
			}
			p.streamBuf = append(p.streamBuf, buffered{la: la, sharers: sharers})
		}
		if p.online != nil {
			p.online.Fill(la, true)
		}
		if p.waitingForSlot {
			p.waitingForSlot = false
			p.stats.BufferWait += t - p.waitStart
			if r := p.s.rec; r != nil {
				r.Wait(p.id, obs.PhaseBufferWait, p.waitStart, t)
			}
			p.run(t)
		}
		return
	}
	line, ev := p.cache.Allocate(la)
	p.handleEviction(ev, t)
	// The protocol picks the install state from what the fetch was (demand
	// or prefetch, read or read-for-ownership) and whether any other cache
	// held the line at the bus grant.
	line.State = p.s.tab.fill[fillIndex(excl, isPrefetch, sharers)]
	if isPrefetch {
		line.PrefetchedUnused = true
		p.outstandingPrefetch--
		if r := p.s.rec; r != nil {
			r.PrefetchFilled(p.id, uint64(la), t)
		}
	}
	if p.online != nil {
		p.online.Fill(la, isPrefetch)
	}
	// Fault injection: force the configured state onto the configured line
	// after this fill, bypassing the protocol. The invariant check below (or
	// the pre-snoop check at the next grant touching the line) must catch it.
	fill := p.fills
	p.fills++
	for _, f := range p.s.cfg.Faults.FlipsAfterFill(p.id, fill, la) {
		if l := p.cache.Lookup(p.s.geom.LineAddr(f.Addr)); l != nil {
			l.State = f.To
		}
	}
	if p.s.cfg.CheckInvariants {
		p.s.checkLine(t, la)
		n := 0
		for _, o := range p.inflight {
			if o.isPrefetch {
				n++
			}
		}
		if v := check.PrefetchAccounting(t, p.id, p.outstandingPrefetch, n, p.s.cfg.PrefetchBufferDepth); v != nil {
			p.s.fail(v)
		}
	}
	switch {
	case cpuWaiting:
		p.stats.MemWait += t - p.waitStart
		if r := p.s.rec; r != nil {
			r.Wait(p.id, obs.PhaseMemWait, p.waitStart, t)
		}
		p.run(t)
	case isPrefetch && p.waitingForSlot:
		p.waitingForSlot = false
		p.stats.BufferWait += t - p.waitStart
		if r := p.s.rec; r != nil {
			r.Wait(p.id, obs.PhaseBufferWait, p.waitStart, t)
		}
		p.run(t)
	}
}

// handleEviction accounts for a displaced line: dirty victims owe a
// writeback bus operation, and displaced prefetched-but-unused lines are
// remembered so their future miss is classified "prefetched".
func (p *proc) handleEviction(ev cache.Eviction, t uint64) {
	if !ev.HadTag {
		return
	}
	if ev.PrefetchedUnused {
		p.wasted[ev.LineAddr] = true
		if r := p.s.rec; r != nil {
			r.PrefetchEvicted(p.id, uint64(ev.LineAddr), t)
		}
	}
	// With a victim cache, valid victims move there instead of leaving the
	// chip; only a dirty line falling out of the victim cache itself is
	// written back.
	if p.victim != nil && ev.State.Valid() {
		vl, vev := p.victim.Allocate(ev.LineAddr)
		vl.State = ev.State
		if vev.HadTag && vev.State.Dirty() {
			p.writeback(t, vev.LineAddr)
		}
		return
	}
	if ev.State.Dirty() {
		p.writeback(t, ev.LineAddr)
	}
}

// writeback posts a dirty-line writeback bus operation for the evicted line.
// Requests come from a per-processor pool; each returns itself to the pool on
// completion, so a steady state of writebacks allocates nothing.
func (p *proc) writeback(t uint64, la memory.Addr) {
	var req *bus.Request
	if n := len(p.wbFree); n > 0 {
		req = p.wbFree[n-1]
		p.wbFree[n-1] = nil
		p.wbFree = p.wbFree[:n-1]
		req.Reset()
	} else {
		r := &bus.Request{}
		// A completed writeback is progress: with the bus saturated, the
		// lowest-priority writeback class starves and backlogs, and on long
		// traces the post-run drain of that backlog alone can exceed the
		// watchdog threshold — every processor finished, the bus busy every
		// cycle — which must not read as a stall.
		r.OnComplete = func(uint64) { p.s.progress++; p.wbFree = append(p.wbFree, r) }
		req = r
	}
	req.Ready = t
	req.Occupancy = uint64(p.s.cfg.TransferCycles)
	req.Class = bus.Writeback
	req.Op = bus.OpWriteback
	req.Addr = uint64(la)
	req.Proc = p.id
	if err := p.s.ic.Submit(t, req); err != nil {
		p.s.fail(err)
	}
}

// startWriteOp posts the bus operation a write hitting a valid line owes:
// an address-only invalidation upgrade (WriteUpgrade) or a word-update
// broadcast (WriteUpdate). The grant is the coherence point: if a remote
// write won the race and invalidated the line first, the operation converts
// to a miss on resume (write-invalidate protocols only — an update protocol
// never invalidates, so the line is still valid at the grant).
func (p *proc) startWriteOp(a, la memory.Addr, action coherence.WriteAction) {
	w := &p.wop
	w.la = la
	w.word = p.s.geom.WordIndex(a)
	w.action = action
	w.failed = false
	w.req.Reset()
	w.req.Ready = p.clock
	w.req.Occupancy = invalidateCycles
	w.req.Op = bus.OpInvalidate
	if action == coherence.WriteUpdate {
		w.req.Op, w.req.Occupancy = bus.OpUpdate, updateCycles
	}
	w.req.Class = bus.Demand
	w.req.Addr = uint64(la)
	w.req.Proc = p.id
	p.waitStart = p.clock
	if err := p.s.ic.Submit(p.clock, &w.req); err != nil {
		p.s.fail(err)
	}
}

// grantWriteOp performs the blocked write's coherence actions at the grant
// of its broadcast (see startWriteOp).
func (p *proc) grantWriteOp(g uint64) {
	w := &p.wop
	if p.s.cfg.CheckInvariants {
		p.s.checkLine(g, w.la) // pre-snoop: resident states must be legal
	}
	l := p.cache.Lookup(w.la)
	if l == nil || !l.State.Valid() {
		w.failed = true
		return
	}
	var sharers bool
	if w.action == coherence.WriteUpdate {
		sharers = p.s.snoopUpdate(g, p.id, w.la)
		p.s.c.UpdatesSent++
	} else {
		p.s.snoopInvalidate(g, p.id, w.la, w.word)
	}
	if sharers {
		l.State = p.s.tab.writer[w.action][1]
	} else {
		l.State = p.s.tab.writer[w.action][0]
	}
	if p.s.cfg.CheckInvariants {
		p.s.checkLine(g, w.la)
	}
}

// completeWriteOp resumes the blocked write once its broadcast's occupancy
// ends.
func (p *proc) completeWriteOp(t uint64) {
	p.stats.MemWait += t - p.waitStart
	if r := p.s.rec; r != nil {
		r.Wait(p.id, obs.PhaseMemWait, p.waitStart, t)
	}
	if p.wop.failed {
		p.s.c.UpgradeRetries++
	}
	p.writeOpDone = !p.wop.failed
	p.run(t)
}

// prefetchOp executes a prefetch instruction. Prefetches are non-blocking
// unless the 16-deep issue buffer is full.
func (p *proc) prefetchOp(a memory.Addr, excl bool) (blocked bool) {
	if !p.refCounted {
		p.refCounted = true
		p.s.c.PrefetchesIssued++
		p.clock++ // the prefetch instruction itself
		p.stats.BusyCycles++
	}
	la := p.s.geom.LineAddr(a)
	switch inflight, held := p.prefetched(la); {
	case inflight:
		p.s.c.PrefetchMerged++
		return false
	case held:
		// A hit: no bus operation, even for an exclusive prefetch of a
		// Shared line (paper §4.1, EXCL).
		p.s.c.PrefetchCacheHits++
		return false
	}
	if p.outstandingPrefetch >= p.s.cfg.PrefetchBufferDepth {
		p.waitingForSlot = true
		p.waitStart = p.clock
		return true
	}
	delete(p.wasted, la) // a fresh prefetch supersedes the wasted record
	p.startFetch(la, excl, p.s.geom.WordIndex(a), true, bus.Prefetch)
	return false
}

// prefetched reports what makes a prefetch of line la redundant: the line
// is in flight, or else it is held, valid in the data cache or the victim
// cache, or in the prefetch buffer.
func (p *proc) prefetched(la memory.Addr) (inflight, held bool) {
	if p.findInflight(la) != nil {
		return true, false
	}
	return false, p.cache.HoldsValid(la) || (p.victim != nil && p.victim.HoldsValid(la)) || p.bufferIndex(la) >= 0
}

// lockOp acquires the FCFS lock at a, performing the acquire's exclusive
// read-modify-write access to the lock's cache line.
func (p *proc) lockOp(a memory.Addr) (blocked bool) {
	ls := &p.s.locks[p.s.lockSlot(a)]
	switch ls.holder {
	case p.id:
		// Granted while waiting (or re-entry after the access blocked).
		return p.demandAccess(a, true, true)
	case -1:
		ls.holder = p.id
		return p.demandAccess(a, true, true)
	default:
		ls.queue = append(ls.queue, p.id)
		p.waitStart = p.clock
		return true
	}
}

// unlockOp performs the releasing store and hands the lock to the next
// waiter once the store completes.
func (p *proc) unlockOp(a memory.Addr) (blocked bool) {
	if p.demandAccess(a, true, true) {
		return true
	}
	nth := p.releases
	p.releases++
	if p.s.cfg.Faults.DropRelease(p.id, a, nth) {
		// Injected fault: the store happened but the release signal is lost,
		// so queued waiters stay blocked — the hang the watchdog must report.
		return false
	}
	p.s.releaseLock(a, p.clock)
	return false
}

// barrierOp blocks until every processor reaches the barrier. All
// participants resume at the latest arrival time.
func (p *proc) barrierOp(id memory.Addr) (blocked bool) {
	if p.atBarrier {
		return false
	}
	// Inline barrier-sequence check (trace.Validate's rule): every
	// processor's k-th barrier must name the same object as the first
	// processor to arrive at its own k-th barrier, and no processor may
	// reach a barrier some finished processor never passed. A violation
	// would deadlock the replay; failing here reports it as the trace bug
	// it is rather than as a watchdog stall.
	k := p.barSeen
	p.barSeen++
	if k >= p.s.minEndBarriers {
		p.srcFailed = true
		p.s.fail(fmt.Errorf("sim: proc %d reaches barrier %d, but another processor's stream ended after %d barriers",
			p.id, k, p.s.minEndBarriers))
		return true
	}
	if k < len(p.s.barLog) {
		if p.s.barLog[k] != id {
			p.srcFailed = true
			p.s.fail(fmt.Errorf("sim: proc %d barrier %d is %d, an earlier arrival had %d",
				p.id, k, uint64(id), uint64(p.s.barLog[k])))
			return true
		}
	} else {
		p.s.barLog = append(p.s.barLog, id)
	}
	p.atBarrier = true
	p.waitStart = p.clock
	return p.s.arriveBarrier(id, p, p.clock)
}
