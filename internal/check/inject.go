package check

import (
	"fmt"
	"math/rand"

	"busprefetch/internal/cache"
	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

// LockDrop is a runtime fault: the simulator performs the Nth lock release
// by processor Proc normally at the memory level but "loses" the release
// signal, so queued waiters are never granted the lock — the classic
// never-released-lock hang the progress watchdog must catch.
type LockDrop struct {
	// Proc is the releasing processor.
	Proc int
	// Addr is the lock address; zero matches any lock.
	Addr memory.Addr
	// Nth is the 0-based ordinal of the release (counted per processor,
	// across all locks when Addr is zero); negative drops every release.
	Nth int
}

// StateFlip is a runtime fault: after processor Proc completes its OnFill-th
// line fill, the processor's cached copy of line Addr is forced to state To,
// bypassing the protocol — the corruption the coherence checker must catch.
type StateFlip struct {
	// Proc is the processor whose cache is corrupted.
	Proc int
	// Addr is the line to corrupt; zero means the line the triggering fill
	// just installed.
	Addr memory.Addr
	// To is the state forced onto the line.
	To cache.State
	// OnFill is the 0-based ordinal of the triggering fill; negative
	// triggers on every fill.
	OnFill int
}

// Plan is a set of runtime faults the simulator applies during a run
// (sim.Config.Faults). A Plan is stateless and read-only: the simulator
// tracks per-processor ordinals, so one Plan can safely poison several
// concurrent runs.
type Plan struct {
	DropReleases []LockDrop
	Flips        []StateFlip
}

// DropRelease reports whether the plan suppresses the given release: the
// nth release (0-based) performed by proc, of the lock at addr.
func (p *Plan) DropRelease(proc int, addr memory.Addr, nth int) bool {
	if p == nil {
		return false
	}
	for _, d := range p.DropReleases {
		if d.Proc != proc {
			continue
		}
		if d.Addr != 0 && d.Addr != addr {
			continue
		}
		if d.Nth < 0 || d.Nth == nth {
			return true
		}
	}
	return false
}

// FlipsAfterFill returns the state flips to apply after proc's fill-th
// completed line fill installed line filled. Returned flips have Addr
// resolved (zero becomes the filled line).
func (p *Plan) FlipsAfterFill(proc, fill int, filled memory.Addr) []StateFlip {
	if p == nil {
		return nil
	}
	var out []StateFlip
	for _, f := range p.Flips {
		if f.Proc != proc {
			continue
		}
		if f.OnFill >= 0 && f.OnFill != fill {
			continue
		}
		if f.Addr == 0 {
			f.Addr = filled
		}
		out = append(out, f)
	}
	return out
}

// Injector mutates traces and encoded trace bytes to model data corruption.
// All trace operations work on a deep copy; the original is never modified.
// The seed makes randomized faults (FlipBit with a negative bit index)
// reproducible.
type Injector struct {
	rng *rand.Rand
}

// NewInjector returns an injector whose randomized faults derive from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// TruncateStream returns a copy of t keeping only the first keep events of
// one processor's stream — a trace cut off mid-computation.
func (in *Injector) TruncateStream(t *trace.Trace, proc, keep int) (*trace.Trace, error) {
	if proc < 0 || proc >= len(t.Streams) {
		return nil, fmt.Errorf("check: inject: proc %d outside [0, %d)", proc, len(t.Streams))
	}
	if keep < 0 || keep > len(t.Streams[proc]) {
		return nil, fmt.Errorf("check: inject: keep %d outside [0, %d]", keep, len(t.Streams[proc]))
	}
	c := t.Clone()
	c.Streams[proc] = c.Streams[proc][:keep]
	return c, nil
}

// FlipBit returns a copy of data with one bit inverted, and the bit's index.
// A negative bit selects a uniformly random bit using the injector's seed.
// Flipping any bit of an encoded trace must make Decode fail (the CRC
// footer), never panic.
func (in *Injector) FlipBit(data []byte, bit int) ([]byte, int) {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out, -1
	}
	if bit < 0 {
		bit = in.rng.Intn(len(out) * 8)
	}
	bit %= len(out) * 8
	out[bit/8] ^= 1 << uint(bit%8)
	return out, bit
}
