package sim

import "math/bits"

// wheelSlots is the timing wheel's horizon in cycles, a power of two. It
// covers the farthest event the kernel schedules in the ordinary course at
// the paper's machine: a processor's run-ahead (yieldQuantum, 64), the
// uncontended memory phase (up to MemLatency, 100), the directory lookup
// (20) and a transfer's occupancy (up to 32). Events further out — long
// instruction-gap yields, larger memory latencies — wait in the far heap
// until the horizon reaches them, so the horizon affects speed, never order.
const (
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// event is a far-heap entry: a callback scheduled at or beyond the wheel's
// horizon, ordered by (t, seq).
type event struct {
	t   uint64
	seq uint64
	fn  func(now uint64)
}

// wheelNode is one event on the wheel. A slot's events form a FIFO list
// through next, in e.nodes.
type wheelNode struct {
	fn   func(now uint64)
	next int32
}

// engine is a deterministic discrete-event scheduler. Events run in (time,
// scheduling order): same-time events run in the order they were scheduled,
// which makes whole simulations reproducible bit for bit.
//
// Most events fall within a few hundred cycles of now, so the queue is a
// timing wheel (a calendar queue, Brown, CACM 1988): one FIFO list per
// cycle of the horizon, and an occupancy bitmap to find the next non-empty
// slot. Scheduling and dispatch are O(1). Events beyond the horizon go to a
// (t, seq) binary heap, and move onto the wheel as soon as now comes within
// the horizon of them, which is always before any event could be scheduled
// onto their slot directly. So a slot's list is in scheduling order and the
// wheel dispatches exactly as one (t, seq) heap would; TestEngineOrder checks
// that against such a heap. The ordering invariant: every wheel event has
// now <= t < now+wheelSlots, and every far event has t >= now+wheelSlots.
type engine struct {
	now uint64
	seq uint64

	// head and tail index a slot's first and last node in nodes; they are
	// meaningful only while the slot's occupancy bit is set. Nodes are
	// recycled through the free list, so the steady state allocates
	// nothing.
	head, tail [wheelSlots]int32
	occ        [wheelWords]uint64
	nodes      []wheelNode
	free       int32

	// far is the (t, seq) min-heap of events beyond the horizon. It is
	// hand-rolled over a typed slice rather than container/heap, whose
	// interface{}-based API boxes every pushed event into a heap allocation.
	far []event
}

// initialNodes sizes the node pool for the usual number of pending events
// (a handful per processor and per bus), so a run seldom grows it.
const initialNodes = 64

func newEngine() *engine {
	return &engine{nodes: make([]wheelNode, 0, initialNodes), free: -1}
}

// At implements bus.Scheduler. A time before now is clamped to now.
func (e *engine) At(t uint64, fn func(now uint64)) {
	if t < e.now {
		t = e.now
	}
	if t-e.now >= wheelSlots {
		e.seq++
		e.far = append(e.far, event{t: t, seq: e.seq, fn: fn})
		e.up(len(e.far) - 1)
		return
	}
	e.push(t, fn)
}

// push appends fn to the list of t's slot; t must be within the horizon.
func (e *engine) push(t uint64, fn func(now uint64)) {
	n := e.free
	if n >= 0 {
		e.free = e.nodes[n].next
		e.nodes[n] = wheelNode{fn: fn}
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, wheelNode{fn: fn})
	}
	i := t & wheelMask
	if bit := uint64(1) << (i & 63); e.occ[i>>6]&bit == 0 {
		e.occ[i>>6] |= bit
		e.head[i] = n
	} else {
		e.nodes[e.tail[i]].next = n
	}
	e.tail[i] = n
}

// advance moves now to the earliest pending event's time and reports
// whether there is one. The far events that the new horizon reaches move
// onto the wheel before any event at the new time runs.
func (e *engine) advance() bool {
	i := e.now & wheelMask
	if e.occ[i>>6]&(1<<(i&63)) != 0 {
		return true
	}
	if d, ok := e.nextOccupied(i); ok {
		e.now += d
	} else if len(e.far) > 0 {
		e.now = e.far[0].t
	} else {
		return false
	}
	for len(e.far) > 0 && e.far[0].t-e.now < wheelSlots {
		ev := e.popFar()
		e.push(ev.t, ev.fn)
	}
	return true
}

// nextOccupied returns the distance from slot i to the next occupied slot
// in circular order, which is the next wheel event's distance from now.
func (e *engine) nextOccupied(i uint64) (uint64, bool) {
	w := i >> 6
	m := e.occ[w] &^ (1<<(i&63) - 1)
	for k := 0; k <= wheelWords; k++ {
		if m != 0 {
			j := w<<6 | uint64(bits.TrailingZeros64(m))
			return (j - i) & wheelMask, true
		}
		w = (w + 1) % wheelWords
		m = e.occ[w]
	}
	return 0, false
}

// pop removes the first event of now's slot, which advance found occupied.
// The node's closure is cleared so the pool does not pin it for the GC.
func (e *engine) pop() func(now uint64) {
	i := e.now & wheelMask
	n := e.head[i]
	node := &e.nodes[n]
	fn := node.fn
	if n == e.tail[i] {
		e.occ[i>>6] &^= 1 << (i & 63)
	} else {
		e.head[i] = node.next
	}
	node.fn, node.next = nil, e.free
	e.free = n
	return fn
}

// run drains the event queue. When watch is non-nil it runs before every
// event dispatch; a non-nil error from it aborts the run immediately —
// remaining events are discarded — and is returned. The simulator uses this
// hook for its progress watchdog and for first-error abort.
func (e *engine) run(watch func(now uint64) error) error {
	for e.advance() {
		fn := e.pop()
		if watch != nil {
			if err := watch(e.now); err != nil {
				e.occ = [wheelWords]uint64{}
				e.far = e.far[:0]
				return err
			}
		}
		fn(e.now)
	}
	return nil
}

func (e *engine) less(i, j int) bool {
	if e.far[i].t != e.far[j].t {
		return e.far[i].t < e.far[j].t
	}
	return e.far[i].seq < e.far[j].seq
}

func (e *engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.far[i], e.far[parent] = e.far[parent], e.far[i]
		i = parent
	}
}

func (e *engine) down(i int) {
	n := len(e.far)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		next := l
		if r := l + 1; r < n && e.less(r, l) {
			next = r
		}
		if !e.less(next, i) {
			break
		}
		e.far[i], e.far[next] = e.far[next], e.far[i]
		i = next
	}
}

// popFar removes and returns the earliest far event. The vacated tail slot
// is zeroed so the heap does not pin the popped closure for the GC.
func (e *engine) popFar() event {
	top := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n] = event{}
	e.far = e.far[:n]
	if n > 0 {
		e.down(0)
	}
	return top
}
