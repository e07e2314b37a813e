package check

import (
	"fmt"
	"strings"

	"busprefetch/internal/cache"
	"busprefetch/internal/memory"
)

// ProcLineState is one processor's view of a cache line at a check point:
// the data-cache state, the victim-cache state (Invalid when there is no
// victim cache or it does not hold the line), and whether the processor has
// a fetch of the line in flight.
type ProcLineState struct {
	Proc        int
	State       cache.State
	VictimState cache.State
	// Inflight is true when the processor has an outstanding fetch of the
	// line; Excl and IsPrefetch describe that fetch.
	Inflight   bool
	Excl       bool
	IsPrefetch bool
}

func (p ProcLineState) String() string {
	s := fmt.Sprintf("proc%d=%v", p.Proc, p.State)
	if p.VictimState.Valid() {
		s += fmt.Sprintf("(victim %v)", p.VictimState)
	}
	if p.Inflight {
		s += fmt.Sprintf(" inflight(excl=%v,pf=%v)", p.Excl, p.IsPrefetch)
	}
	return s
}

// Violation is a detected invariant violation. It is an error; the simulator
// aborts the run and returns it, so one corrupted run fails with a diagnosis
// instead of taking the whole experiment suite down.
type Violation struct {
	// Cycle is the simulation time at which the violation was detected.
	Cycle uint64
	// Line is the cache-line address the violation concerns (zero for
	// per-processor accounting violations).
	Line memory.Addr
	// Rule names the broken invariant ("multiple-owner", "owner-with-sharers",
	// "prefetch-accounting", "snoop-filter", "hit-in-flight").
	Rule string
	// Detail is a human-readable elaboration.
	Detail string
	// States is every cache's view of the line at detection time (nil for
	// accounting violations).
	States []ProcLineState
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s violated at cycle %d", v.Rule, v.Cycle)
	if v.Line != 0 {
		fmt.Fprintf(&b, " for line 0x%x", uint64(v.Line))
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	if len(v.States) > 0 {
		b.WriteString(" [")
		first := true
		for _, s := range v.States {
			if s.State == cache.Invalid && !s.VictimState.Valid() && !s.Inflight {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(s.String())
		}
		b.WriteString("]")
	}
	return b.String()
}

// LineRule is a coherence protocol's per-line legality predicate: given
// every cache's view of one line it returns the name and detail of the
// broken invariant, or an empty rule name when the states are legal.
// internal/coherence supplies the rule for the simulated protocol
// (Protocol.Invariant); CheckLine turns a non-empty answer into a Violation.
type LineRule func(states []ProcLineState) (rule, detail string)

// CheckLine verifies one line's cross-cache states against a protocol's
// legality rule and returns the Violation, or nil when the states are legal.
//
// Callers check at a bus transaction's serialization point (the grant),
// before snooping repairs remote copies — a corrupted state is caught there
// before the protocol's normal actions can mask it — and again after a fill
// installs its line.
func CheckLine(cycle uint64, line memory.Addr, states []ProcLineState, legal LineRule) *Violation {
	rule, detail := legal(states)
	if rule == "" {
		return nil
	}
	return &Violation{
		Cycle:  cycle,
		Line:   line,
		Rule:   rule,
		Detail: detail,
		States: append([]ProcLineState(nil), states...),
	}
}

// tally counts one line's copies across every cache and victim cache:
// exclusively-owned (Modified or Exclusive), shared-clean (Shared), and
// shared-dirty (SharedMod) states.
func tally(states []ProcLineState) (excl, shared, sharedMod int) {
	count := func(s cache.State) {
		switch s {
		case cache.Modified, cache.Exclusive:
			excl++
		case cache.Shared:
			shared++
		case cache.SharedMod:
			sharedMod++
		}
	}
	for _, s := range states {
		count(s.State)
		count(s.VictimState)
	}
	return excl, shared, sharedMod
}

// InvalidationOwnership is the write-invalidate protocols' legality rule
// (Illinois and MSI): at most one owner (Modified or Exclusive, in the data
// cache or the victim cache), no Shared copies anywhere while an owner
// exists, and no SharedMod copies ever — shared-dirty lines exist only
// under a write-update protocol.
func InvalidationOwnership(states []ProcLineState) (rule, detail string) {
	excl, shared, sharedMod := tally(states)
	switch {
	case sharedMod > 0:
		return "foreign-state", fmt.Sprintf("%d shared-modified copies under a write-invalidate protocol", sharedMod)
	case excl > 1:
		return "multiple-owner", fmt.Sprintf("%d caches own the line", excl)
	case excl == 1 && shared > 0:
		return "owner-with-sharers", fmt.Sprintf("1 owner coexists with %d shared copies", shared)
	}
	return "", ""
}

// UpdateOwnership is the write-update (Dragon) legality rule: an Exclusive
// or Modified copy excludes every other valid copy, and at most one cache
// holds the line SharedMod (the update-owner responsible for supplying data
// and the eventual writeback). Any number of Shared copies may coexist with
// that owner.
func UpdateOwnership(states []ProcLineState) (rule, detail string) {
	excl, shared, sharedMod := tally(states)
	switch {
	case excl > 1:
		return "multiple-owner", fmt.Sprintf("%d caches own the line exclusively", excl)
	case excl == 1 && shared+sharedMod > 0:
		return "owner-with-sharers", fmt.Sprintf("1 exclusive owner coexists with %d shared copies", shared+sharedMod)
	case sharedMod > 1:
		return "multiple-update-owner", fmt.Sprintf("%d caches hold the line shared-modified", sharedMod)
	}
	return "", ""
}

// PrefetchAccounting verifies a processor's prefetch issue-buffer counters:
// the outstanding count must equal the number of in-flight prefetch
// transactions and stay within [0, depth]. A mismatch means the simulator
// leaked or double-freed an issue-buffer slot.
func PrefetchAccounting(cycle uint64, proc, outstanding, inflightPrefetches, depth int) *Violation {
	if outstanding == inflightPrefetches && outstanding >= 0 && outstanding <= depth {
		return nil
	}
	return &Violation{
		Cycle: cycle,
		Rule:  "prefetch-accounting",
		Detail: fmt.Sprintf("proc %d: %d outstanding prefetches, %d in flight, depth %d",
			proc, outstanding, inflightPrefetches, depth),
	}
}
