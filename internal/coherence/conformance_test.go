package coherence

import (
	"strings"
	"testing"

	"busprefetch/internal/cache"
	"busprefetch/internal/check"
)

// This file is the protocol conformance suite: every (state, event) pair of
// every protocol is pinned in explicit tables, and a set of protocol-generic
// laws — fills install valid states, exclusivity requires the absence of
// sharers, the single-owner and no-stale-sharer invariants — runs over
// Protocols(), so any future implementation added to the registry is
// exercised without new test plumbing.

var validStates = []cache.State{cache.Shared, cache.Exclusive, cache.Modified, cache.SharedMod}

// allFills enumerates every Fill the simulator can present.
func allFills() []Fill {
	var fs []Fill
	for _, excl := range []bool{false, true} {
		for _, pf := range []bool{false, true} {
			for _, sh := range []bool{false, true} {
				fs = append(fs, Fill{Excl: excl, IsPrefetch: pf, Sharers: sh})
			}
		}
	}
	return fs
}

type writeHitCase struct {
	action WriteAction
	next   cache.State // meaningful only for WriteSilent
}

// The exact transition tables. Key order: Shared, Exclusive, Modified,
// SharedMod.
var writeHitTable = map[Kind]map[cache.State]writeHitCase{
	Illinois: {
		cache.Shared:    {WriteUpgrade, cache.Shared},
		cache.Exclusive: {WriteSilent, cache.Modified},
		cache.Modified:  {WriteSilent, cache.Modified},
		cache.SharedMod: {WriteUpgrade, cache.SharedMod}, // foreign state: treated as shared
	},
	MSI: {
		cache.Shared:    {WriteUpgrade, cache.Shared},
		cache.Exclusive: {WriteSilent, cache.Modified}, // unreachable, but writes like an owner
		cache.Modified:  {WriteSilent, cache.Modified},
		cache.SharedMod: {WriteUpgrade, cache.SharedMod},
	},
	Dragon: {
		cache.Shared:    {WriteUpdate, cache.Shared},
		cache.Exclusive: {WriteSilent, cache.Modified},
		cache.Modified:  {WriteSilent, cache.Modified},
		cache.SharedMod: {WriteUpdate, cache.SharedMod},
	},
}

var snoopReadTable = map[Kind]map[cache.State]cache.State{
	Illinois: {
		cache.Shared:    cache.Shared,
		cache.Exclusive: cache.Shared,
		cache.Modified:  cache.Shared,
		cache.SharedMod: cache.SharedMod,
	},
	MSI: {
		cache.Shared:    cache.Shared,
		cache.Exclusive: cache.Shared,
		cache.Modified:  cache.Shared,
		cache.SharedMod: cache.SharedMod,
	},
	Dragon: {
		cache.Shared:    cache.Shared,
		cache.Exclusive: cache.Shared,
		cache.Modified:  cache.SharedMod, // owner keeps writeback responsibility
		cache.SharedMod: cache.SharedMod,
	},
}

var snoopWriteTable = map[Kind]map[cache.State]cache.State{
	Illinois: {
		cache.Shared:    cache.Invalid,
		cache.Exclusive: cache.Invalid,
		cache.Modified:  cache.Invalid,
		cache.SharedMod: cache.Invalid,
	},
	MSI: {
		cache.Shared:    cache.Invalid,
		cache.Exclusive: cache.Invalid,
		cache.Modified:  cache.Invalid,
		cache.SharedMod: cache.Invalid,
	},
	Dragon: {
		cache.Shared:    cache.Shared,
		cache.Exclusive: cache.Shared,
		cache.Modified:  cache.Shared,
		cache.SharedMod: cache.Shared, // the remote writer takes over as update-owner
	},
}

var snoopUpdateTable = map[Kind]map[cache.State]cache.State{
	// Write-invalidate protocols never see updates; a resident copy is
	// unaffected.
	Illinois: {
		cache.Shared:    cache.Shared,
		cache.Exclusive: cache.Exclusive,
		cache.Modified:  cache.Modified,
		cache.SharedMod: cache.SharedMod,
	},
	MSI: {
		cache.Shared:    cache.Shared,
		cache.Exclusive: cache.Exclusive,
		cache.Modified:  cache.Modified,
		cache.SharedMod: cache.SharedMod,
	},
	Dragon: {
		cache.Shared:    cache.Shared,
		cache.Exclusive: cache.Shared,
		cache.Modified:  cache.Shared,
		cache.SharedMod: cache.Shared,
	},
}

var fillTable = map[Kind]map[Fill]cache.State{
	Illinois: {
		{Excl: false, IsPrefetch: false, Sharers: false}: cache.Exclusive, // the private-clean fill
		{Excl: false, IsPrefetch: false, Sharers: true}:  cache.Shared,
		{Excl: false, IsPrefetch: true, Sharers: false}:  cache.Exclusive,
		{Excl: false, IsPrefetch: true, Sharers: true}:   cache.Shared,
		{Excl: true, IsPrefetch: false, Sharers: false}:  cache.Modified,
		{Excl: true, IsPrefetch: false, Sharers: true}:   cache.Modified,
		{Excl: true, IsPrefetch: true, Sharers: false}:   cache.Exclusive,
		{Excl: true, IsPrefetch: true, Sharers: true}:    cache.Exclusive,
	},
	MSI: {
		{Excl: false, IsPrefetch: false, Sharers: false}: cache.Shared, // no private-clean state
		{Excl: false, IsPrefetch: false, Sharers: true}:  cache.Shared,
		{Excl: false, IsPrefetch: true, Sharers: false}:  cache.Shared,
		{Excl: false, IsPrefetch: true, Sharers: true}:   cache.Shared,
		{Excl: true, IsPrefetch: false, Sharers: false}:  cache.Modified,
		{Excl: true, IsPrefetch: false, Sharers: true}:   cache.Modified,
		{Excl: true, IsPrefetch: true, Sharers: false}:   cache.Modified,
		{Excl: true, IsPrefetch: true, Sharers: true}:    cache.Modified,
	},
	Dragon: {
		{Excl: false, IsPrefetch: false, Sharers: false}: cache.Exclusive,
		{Excl: false, IsPrefetch: false, Sharers: true}:  cache.Shared,
		{Excl: false, IsPrefetch: true, Sharers: false}:  cache.Exclusive,
		{Excl: false, IsPrefetch: true, Sharers: true}:   cache.Shared,
		{Excl: true, IsPrefetch: false, Sharers: false}:  cache.Modified,
		{Excl: true, IsPrefetch: false, Sharers: true}:   cache.SharedMod, // write miss joins the sharers as owner
		{Excl: true, IsPrefetch: true, Sharers: false}:   cache.Exclusive, // excl prefetch degenerates to a read fill
		{Excl: true, IsPrefetch: true, Sharers: true}:    cache.Shared,
	},
}

var writerStateTable = map[Kind]map[WriteAction]map[bool]cache.State{
	Illinois: {
		WriteUpgrade: {false: cache.Modified, true: cache.Modified},
		WriteUpdate:  {false: cache.Modified, true: cache.Modified},
	},
	MSI: {
		WriteUpgrade: {false: cache.Modified, true: cache.Modified},
		WriteUpdate:  {false: cache.Modified, true: cache.Modified},
	},
	Dragon: {
		WriteUpgrade: {false: cache.Modified, true: cache.Modified},
		WriteUpdate:  {false: cache.Modified, true: cache.SharedMod},
	},
}

func TestTransitionTables(t *testing.T) {
	for _, p := range Protocols() {
		k := p.Kind()
		for st, want := range writeHitTable[k] {
			act, next := p.WriteHit(st)
			if act != want.action {
				t.Errorf("%v: WriteHit(%v) action = %v, want %v", k, st, act, want.action)
			}
			if act == WriteSilent && next != want.next {
				t.Errorf("%v: WriteHit(%v) next = %v, want %v", k, st, next, want.next)
			}
		}
		for st, want := range snoopReadTable[k] {
			if got := p.SnoopRead(st); got != want {
				t.Errorf("%v: SnoopRead(%v) = %v, want %v", k, st, got, want)
			}
		}
		for st, want := range snoopWriteTable[k] {
			if got := p.SnoopWrite(st); got != want {
				t.Errorf("%v: SnoopWrite(%v) = %v, want %v", k, st, got, want)
			}
		}
		for st, want := range snoopUpdateTable[k] {
			if got := p.SnoopUpdate(st); got != want {
				t.Errorf("%v: SnoopUpdate(%v) = %v, want %v", k, st, got, want)
			}
		}
		for f, want := range fillTable[k] {
			if got := p.FillState(f); got != want {
				t.Errorf("%v: FillState(%+v) = %v, want %v", k, f, got, want)
			}
		}
		for act, bySharers := range writerStateTable[k] {
			for sharers, want := range bySharers {
				if got := p.WriterState(act, sharers); got != want {
					t.Errorf("%v: WriterState(%v, sharers=%v) = %v, want %v", k, act, sharers, got, want)
				}
			}
		}
	}
}

// TestTablesAreComplete guards the conformance tables themselves: every
// protocol in the registry must have an entry for every state and every
// fill, so adding a protocol (or a state) without extending the tables fails
// loudly instead of silently skipping pairs.
func TestTablesAreComplete(t *testing.T) {
	for _, p := range Protocols() {
		k := p.Kind()
		for _, st := range validStates {
			if _, ok := writeHitTable[k][st]; !ok {
				t.Errorf("writeHitTable[%v] missing state %v", k, st)
			}
			if _, ok := snoopReadTable[k][st]; !ok {
				t.Errorf("snoopReadTable[%v] missing state %v", k, st)
			}
			if _, ok := snoopWriteTable[k][st]; !ok {
				t.Errorf("snoopWriteTable[%v] missing state %v", k, st)
			}
			if _, ok := snoopUpdateTable[k][st]; !ok {
				t.Errorf("snoopUpdateTable[%v] missing state %v", k, st)
			}
		}
		for _, f := range allFills() {
			if _, ok := fillTable[k][f]; !ok {
				t.Errorf("fillTable[%v] missing fill %+v", k, f)
			}
		}
	}
}

// TestProtocolLaws asserts the protocol-generic requirements any future
// implementation must satisfy, independent of its particular tables.
func TestProtocolLaws(t *testing.T) {
	for _, p := range Protocols() {
		k := p.Kind()

		// Fills must install usable data.
		for _, f := range allFills() {
			if st := p.FillState(f); !st.Valid() {
				t.Errorf("%v: FillState(%+v) = %v, not a valid state", k, f, st)
			}
			// A non-exclusive fill that observed sharers must not install an
			// exclusivity-asserting state.
			if !f.Excl && f.Sharers {
				if st := p.FillState(f); st == cache.Exclusive || st == cache.Modified {
					t.Errorf("%v: read fill with sharers installed exclusive state %v", k, f)
				}
			}
		}

		// A held Modified line writes silently: ownership is already paid for.
		if act, next := p.WriteHit(cache.Modified); act != WriteSilent || next != cache.Modified {
			t.Errorf("%v: WriteHit(M) = (%v, %v), want silent Modified", k, act, next)
		}

		for _, st := range validStates {
			// After a remote write, no stale exclusivity may remain.
			if got := p.SnoopWrite(st); got == cache.Exclusive || got == cache.Modified {
				t.Errorf("%v: SnoopWrite(%v) left exclusive state %v", k, st, got)
			}
			// After a remote read, a copy cannot remain Exclusive-clean.
			if got := p.SnoopRead(st); got == cache.Exclusive {
				t.Errorf("%v: SnoopRead(%v) left the copy Exclusive", k, st)
			}
			// Write actions other than WriteSilent must resolve to an owned,
			// dirty state once the broadcast completes.
			act, _ := p.WriteHit(st)
			if act != WriteSilent {
				for _, sharers := range []bool{false, true} {
					if got := p.WriterState(act, sharers); !got.Dirty() {
						t.Errorf("%v: WriterState(%v, sharers=%v) = %v, not dirty", k, act, sharers, got)
					}
				}
			}
		}
	}
}

// line builds a ProcLineState vector from data-cache states.
func line(states ...cache.State) []check.ProcLineState {
	out := make([]check.ProcLineState, len(states))
	for i, s := range states {
		out[i] = check.ProcLineState{Proc: i, State: s}
	}
	return out
}

// TestInvariants pins each protocol's legality predicate: the single-owner
// and no-stale-sharer rules every protocol enforces, plus the per-protocol
// refinements (no SharedMod under write-invalidate, at most one update-owner
// under Dragon).
func TestInvariants(t *testing.T) {
	type verdict struct {
		name   string
		states []check.ProcLineState
		rule   string // expected broken rule; "" = legal
	}
	common := []verdict{
		{"all invalid", line(cache.Invalid, cache.Invalid), ""},
		{"one modified", line(cache.Modified, cache.Invalid), ""},
		{"one exclusive", line(cache.Exclusive, cache.Invalid), ""},
		{"many shared", line(cache.Shared, cache.Shared, cache.Shared), ""},
		{"two owners", line(cache.Modified, cache.Exclusive), "multiple-owner"},
		{"two modified", line(cache.Modified, cache.Modified), "multiple-owner"},
		{"owner with sharer", line(cache.Modified, cache.Shared), "owner-with-sharers"},
		{"exclusive with sharer", line(cache.Exclusive, cache.Shared), "owner-with-sharers"},
	}
	perKind := map[Kind][]verdict{
		Illinois: {
			{"shared-dirty is foreign", line(cache.SharedMod, cache.Shared), "foreign-state"},
		},
		MSI: {
			{"shared-dirty is foreign", line(cache.SharedMod), "foreign-state"},
		},
		Dragon: {
			{"update-owner with sharers", line(cache.SharedMod, cache.Shared, cache.Shared), ""},
			{"lone update-owner", line(cache.SharedMod), ""},
			{"two update-owners", line(cache.SharedMod, cache.SharedMod), "multiple-update-owner"},
			{"exclusive with update-owner", line(cache.Modified, cache.SharedMod), "owner-with-sharers"},
		},
	}
	for _, p := range Protocols() {
		legal := p.Invariant()
		for _, v := range append(append([]verdict(nil), common...), perKind[p.Kind()]...) {
			rule, _ := legal(v.states)
			if rule != v.rule {
				t.Errorf("%v: %s: rule = %q, want %q", p.Kind(), v.name, rule, v.rule)
			}
		}
	}
}

func TestParseAndRegistry(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("%v not Valid()", k)
		}
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v", k.String(), got, err)
		}
		if ByKind(k).Kind() != k {
			t.Errorf("ByKind(%v).Kind() mismatch", k)
		}
	}
	if k, err := Parse("dragon"); err != nil || k != Dragon {
		t.Errorf("Parse(dragon) = %v, %v", k, err)
	}
	if k, err := Parse("ILLINOIS"); err != nil || k != Illinois {
		t.Errorf("Parse(ILLINOIS) = %v, %v", k, err)
	}
	if _, err := Parse("mesi2"); err == nil {
		t.Error("Parse accepted an unknown protocol")
	} else {
		for _, k := range Kinds() {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("Parse(mesi2) error %q does not list valid name %q", err, k)
			}
		}
	}
	if Kind(99).Valid() {
		t.Error("Kind(99) reported valid")
	}
	if got := Kind(99).String(); got != "Protocol(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
}
