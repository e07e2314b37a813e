package trace

import (
	"fmt"

	"busprefetch/internal/memory"
)

// Kind identifies what an event does.
type Kind uint8

const (
	// Read is a demand data load.
	Read Kind = iota
	// Write is a demand data store.
	Write
	// Prefetch is a software cache prefetch in shared mode.
	Prefetch
	// PrefetchExcl is an exclusive-mode prefetch (EXCL strategy): the line
	// is fetched with ownership, invalidating other cached copies.
	PrefetchExcl
	// Lock acquires the mutex whose word is at Addr. The acquire performs an
	// exclusive (read-modify-write) access to the lock's line.
	Lock
	// Unlock releases the mutex at Addr with a store to the lock's line.
	Unlock
	// Barrier blocks until every processor has reached the barrier with the
	// same Addr (used as an identifier, not a memory location).
	Barrier
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "prefetch", "prefetch-excl", "lock", "unlock", "barrier"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsDemand reports whether the event is a demand memory access observed by
// the CPU (the accesses whose misses constitute the CPU miss rate).
func (k Kind) IsDemand() bool { return k == Read || k == Write }

// IsPrefetch reports whether the event is a software prefetch of either mode.
func (k Kind) IsPrefetch() bool { return k == Prefetch || k == PrefetchExcl }

// Event is a single entry in a processor's stream.
type Event struct {
	// Addr is the byte address accessed (or the barrier identifier).
	Addr memory.Addr
	// Gap is the number of non-memory instructions executed immediately
	// before this event; each costs one CPU cycle.
	Gap uint32
	// Kind says what the event does.
	Kind Kind
}

func (e Event) String() string {
	return fmt.Sprintf("%s 0x%x (+%d)", e.Kind, uint64(e.Addr), e.Gap)
}

// Stream is the ordered event sequence executed by one processor.
type Stream []Event

// Trace is a complete multiprocessor trace.
type Trace struct {
	// Name identifies the workload that produced the trace.
	Name string
	// Streams holds one event stream per processor.
	Streams []Stream
}

// Procs returns the number of processors in the trace.
func (t *Trace) Procs() int { return len(t.Streams) }

// Events returns the total number of events across all streams.
func (t *Trace) Events() int {
	n := 0
	for _, s := range t.Streams {
		n += len(s)
	}
	return n
}

// DemandRefs returns the total number of demand data references (reads and
// writes, the denominator of the paper's miss rates) across all streams.
func (t *Trace) DemandRefs() int {
	n := 0
	for _, s := range t.Streams {
		for _, e := range s {
			if e.Kind.IsDemand() {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy of the trace. Prefetch insertion clones so the
// original NP trace survives for the baseline run.
func (t *Trace) Clone() *Trace {
	c := &Trace{Name: t.Name, Streams: make([]Stream, len(t.Streams))}
	for i, s := range t.Streams {
		c.Streams[i] = append(Stream(nil), s...)
	}
	return c
}

// Validate checks structural invariants: known event kinds, matched
// lock/unlock nesting per processor, and identical barrier sequences across
// processors (a requirement for the simulator's barrier replay to terminate).
// It applies the same rules as DecodeSource, through the same code.
func (t *Trace) Validate() error { return validate(FromTrace(t)) }

// validate is the one implementation of the structural rules Validate
// documents. It drains every processor stream of src once.
func validate(src Source) error {
	barrierSeq := make([][]memory.Addr, src.Procs())
	for p := range barrierSeq {
		held := map[memory.Addr]bool{}
		var barriers []memory.Addr
		i := 0
		for chunk := range src.Events(p) {
			for _, e := range chunk {
				if e.Kind >= numKinds {
					return fmt.Errorf("trace: proc %d event %d has unknown kind %d", p, i, e.Kind)
				}
				switch e.Kind {
				case Lock:
					if held[e.Addr] {
						return fmt.Errorf("trace: proc %d event %d re-acquires held lock 0x%x", p, i, uint64(e.Addr))
					}
					held[e.Addr] = true
				case Unlock:
					if !held[e.Addr] {
						return fmt.Errorf("trace: proc %d event %d releases unheld lock 0x%x", p, i, uint64(e.Addr))
					}
					delete(held, e.Addr)
				case Barrier:
					barriers = append(barriers, e.Addr)
				}
				i++
			}
		}
		if len(held) != 0 {
			return fmt.Errorf("trace: proc %d ends holding %d locks", p, len(held))
		}
		barrierSeq[p] = barriers
	}
	for p := 1; p < len(barrierSeq); p++ {
		if len(barrierSeq[p]) != len(barrierSeq[0]) {
			return fmt.Errorf("trace: proc %d has %d barriers, proc 0 has %d", p, len(barrierSeq[p]), len(barrierSeq[0]))
		}
		for i := range barrierSeq[p] {
			if barrierSeq[p][i] != barrierSeq[0][i] {
				return fmt.Errorf("trace: proc %d barrier %d is %d, proc 0 has %d", p, i, barrierSeq[p][i], barrierSeq[0][i])
			}
		}
	}
	return nil
}
