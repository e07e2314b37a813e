package coherence

import (
	"fmt"

	"busprefetch/internal/cache"
	"busprefetch/internal/check"
	"busprefetch/internal/names"
)

// Kind identifies a coherence protocol.
type Kind int

const (
	// Illinois is the paper's protocol (Papamarcos & Patel): a read fill
	// with no other sharers enters the private-clean (Exclusive) state, so
	// a subsequent write needs no bus operation — "its most important
	// feature for our purposes" (§3.3), and what gives exclusive prefetches
	// their meaning.
	Illinois Kind = iota
	// MSI is the ablation protocol without the private-clean state: every
	// read fills Shared, so every first write to a line costs an
	// invalidation bus operation. Comparing MSI against Illinois isolates
	// how much the private-clean state matters on this machine.
	MSI
	// Dragon is the write-update ablation: writes to shared lines broadcast
	// word updates on the bus instead of invalidating remote copies, so
	// invalidation misses disappear entirely while every write to shared
	// data occupies the bus. Comparing Dragon against Illinois asks the
	// paper's follow-up: what happens to the miss taxonomy and bus demand
	// when invalidations are replaced by updates?
	Dragon
	numKinds
)

var kindNames = []string{"Illinois", "MSI", "Dragon"}

func (k Kind) String() string { return names.Lookup("Protocol", kindNames, int(k)) }

// Valid reports whether k names a known protocol.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Kinds returns every protocol in presentation order.
func Kinds() []Kind { return []Kind{Illinois, MSI, Dragon} }

// Parse resolves a protocol name ("illinois", "msi", "dragon",
// case-insensitive) to its Kind.
func Parse(name string) (Kind, error) {
	i, err := names.Parse("protocol", kindNames, name)
	if err != nil {
		return Illinois, fmt.Errorf("coherence: %w", err)
	}
	return Kind(i), nil
}

// WriteAction is the bus operation a write hitting a valid line requires.
type WriteAction uint8

const (
	// WriteSilent: no bus operation; the line transitions locally.
	WriteSilent WriteAction = iota
	// WriteUpgrade: an address-only invalidation broadcast (bus.OpInvalidate)
	// that removes every remote copy before the write completes.
	WriteUpgrade
	// WriteUpdate: a word-update broadcast (bus.OpUpdate) that refreshes
	// every remote copy in place instead of invalidating it.
	WriteUpdate
)

var writeActionNames = []string{"silent", "upgrade", "update"}

func (a WriteAction) String() string {
	return names.Lookup("WriteAction", writeActionNames, int(a))
}

// Fill describes a completing line fetch to the protocol.
type Fill struct {
	// Excl is true for a read-for-ownership: a demand write miss or an
	// exclusive prefetch.
	Excl bool
	// IsPrefetch is true when a prefetch, not a blocked demand access,
	// initiated the fetch.
	IsPrefetch bool
	// Sharers is true when another cache held a valid copy of the line at
	// the fetch's bus grant (the coherence point).
	Sharers bool
}

// Protocol is one coherence protocol's complete state machine. Every
// transition the simulator performs — local write hits, fill-state
// selection, snoop responses, and the legality predicate the invariant
// checker enforces — is answered here; internal/sim holds no per-protocol
// branches.
//
// Implementations must be stateless values: the per-line state lives in
// internal/cache, and one Protocol instance serves every cache of a run.
type Protocol interface {
	// Kind identifies the protocol.
	Kind() Kind
	// String returns the protocol's presentation name.
	String() string

	// WriteHit returns the bus action a write hitting a valid line in state
	// st requires. For WriteSilent the line immediately assumes next; for
	// WriteUpgrade and WriteUpdate next is meaningless — the post-grant
	// state comes from WriterState once the broadcast's snoop has run.
	WriteHit(st cache.State) (action WriteAction, next cache.State)

	// FillState returns the state a completing fetch installs in.
	FillState(f Fill) cache.State

	// WriterState returns the writer's state at the grant of its
	// WriteUpgrade or WriteUpdate broadcast, given whether any remote cache
	// still held a valid copy after the snoop.
	WriterState(action WriteAction, sharers bool) cache.State

	// SnoopRead returns the next state of a valid resident copy when a
	// remote read fill of the line is observed on the bus.
	SnoopRead(st cache.State) cache.State
	// SnoopWrite returns the next state of a valid resident copy when a
	// remote write takes the line: a read-for-ownership fill, an exclusive
	// prefetch, or an invalidation upgrade.
	SnoopWrite(st cache.State) cache.State
	// SnoopUpdate returns the next state of a valid resident copy when a
	// remote word-update broadcast for the line is observed. Only
	// write-update protocols put updates on the bus.
	SnoopUpdate(st cache.State) cache.State

	// Invariant returns the per-line legality predicate internal/check
	// enforces for this protocol at every serialization point.
	Invariant() check.LineRule
}

// ByKind returns the protocol implementation for k. It panics on an unknown
// kind: kinds are validated at configuration time (sim.Config.Validate), so
// an invalid kind here is a programming error.
func ByKind(k Kind) Protocol {
	switch k {
	case Illinois:
		return illinois{}
	case MSI:
		return msi{}
	case Dragon:
		return dragon{}
	}
	panic(fmt.Sprintf("coherence: no implementation for %v", k))
}
