package workload

import (
	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

// rng is a splitmix64 generator: tiny, fast, and deterministic across
// platforms, which keeps traces reproducible without pulling in math/rand's
// global state.
type rng struct{ state uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{state: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n).
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	return int(r.next() % uint64(n))
}

// builder accumulates one processor's event stream. Instruction work between
// memory references is recorded as the next event's Gap. Whenever the
// current buffer fills, it is handed to yield, the loop body of the
// consumer ranging over the stream, and refilled from the start once yield
// returns. When yield returns false the consumer wants no more events, and
// the builder unwinds the kernel emitting into it with a stopEmit panic,
// which the stream's sequence recovers.
type builder struct {
	events trace.Stream
	gap    uint32
	yield  func([]trace.Event) bool
}

// stopEmit is the panic value that unwinds a kernel whose consumer has
// stopped ranging over its stream.
type stopEmit struct{}

// Instr records n instruction cycles of non-memory work.
func (b *builder) Instr(n int) { b.gap += uint32(n) }

// emit appends one event, handing the buffer downstream first when it is
// full.
func (b *builder) emit(k trace.Kind, a memory.Addr) {
	if len(b.events) == cap(b.events) {
		if !b.yield(b.events) {
			panic(stopEmit{})
		}
		b.events = b.events[:0]
	}
	b.events = append(b.events, trace.Event{Kind: k, Addr: a, Gap: b.gap})
	b.gap = 0
}

// finish hands over the final partial chunk.
func (b *builder) finish() {
	if len(b.events) > 0 {
		b.yield(b.events)
	}
}

// Read records a demand load of address a.
func (b *builder) Read(a memory.Addr) { b.emit(trace.Read, a) }

// Write records a demand store to address a.
func (b *builder) Write(a memory.Addr) { b.emit(trace.Write, a) }

// Lock records acquisition of the mutex at a.
func (b *builder) Lock(a memory.Addr) { b.emit(trace.Lock, a) }

// Unlock records release of the mutex at a.
func (b *builder) Unlock(a memory.Addr) { b.emit(trace.Unlock, a) }

// Barrier records arrival at barrier id.
func (b *builder) Barrier(id uint64) { b.emit(trace.Barrier, memory.Addr(id)) }
