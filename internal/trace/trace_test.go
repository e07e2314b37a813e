package trace

import (
	"testing"

	"busprefetch/internal/memory"
)

func TestKindPredicates(t *testing.T) {
	if !Read.IsDemand() || !Write.IsDemand() {
		t.Error("reads and writes are demand accesses")
	}
	if Prefetch.IsDemand() || Lock.IsDemand() {
		t.Error("prefetch and lock are not demand accesses")
	}
	if !Prefetch.IsPrefetch() || !PrefetchExcl.IsPrefetch() {
		t.Error("both prefetch kinds are prefetches")
	}
	if !Lock.IsSync() || !Unlock.IsSync() || !Barrier.IsSync() {
		t.Error("sync predicates")
	}
	if Read.IsSync() || Read.IsPrefetch() {
		t.Error("read misclassified")
	}
}

func TestTraceCounts(t *testing.T) {
	tr := &Trace{Streams: []Stream{
		{
			{Kind: Read, Addr: 0, Gap: 2},
			{Kind: Write, Addr: 4},
			{Kind: Prefetch, Addr: 8},
			{Kind: Barrier, Addr: 0},
		},
		{
			{Kind: Read, Addr: 0},
			{Kind: Barrier, Addr: 0},
		},
	}}
	if tr.Procs() != 2 {
		t.Errorf("Procs = %d", tr.Procs())
	}
	if tr.Events() != 6 {
		t.Errorf("Events = %d", tr.Events())
	}
	if tr.DemandRefs() != 3 {
		t.Errorf("DemandRefs = %d", tr.DemandRefs())
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := &Trace{Name: "x", Streams: []Stream{{{Kind: Read, Addr: 1}}}}
	c := tr.Clone()
	c.Streams[0][0].Addr = 99
	if tr.Streams[0][0].Addr != 1 {
		t.Error("Clone shares event storage with the original")
	}
	if c.Name != "x" {
		t.Error("Clone lost the name")
	}
}

func TestValidateAcceptsLegalTrace(t *testing.T) {
	tr := &Trace{Streams: []Stream{
		{{Kind: Lock, Addr: 100}, {Kind: Read, Addr: 4}, {Kind: Unlock, Addr: 100}, {Kind: Barrier, Addr: 7}},
		{{Kind: Barrier, Addr: 7}},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("legal trace rejected: %v", err)
	}
}

func TestValidateRejectsUnbalancedLocks(t *testing.T) {
	cases := []struct {
		name   string
		stream Stream
	}{
		{"unlock without lock", Stream{{Kind: Unlock, Addr: 1}}},
		{"double lock", Stream{{Kind: Lock, Addr: 1}, {Kind: Lock, Addr: 1}}},
		{"lock never released", Stream{{Kind: Lock, Addr: 1}}},
	}
	for _, c := range cases {
		tr := &Trace{Streams: []Stream{c.stream}}
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateRejectsMismatchedBarriers(t *testing.T) {
	tr := &Trace{Streams: []Stream{
		{{Kind: Barrier, Addr: 1}},
		{{Kind: Barrier, Addr: 2}},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("mismatched barrier ids accepted")
	}
	tr2 := &Trace{Streams: []Stream{
		{{Kind: Barrier, Addr: 1}, {Kind: Barrier, Addr: 2}},
		{{Kind: Barrier, Addr: 1}},
	}}
	if err := tr2.Validate(); err == nil {
		t.Error("mismatched barrier counts accepted")
	}
}

func TestValidateRejectsUnknownKind(t *testing.T) {
	tr := &Trace{Streams: []Stream{{{Kind: Kind(200), Addr: 1}}}}
	if err := tr.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
}

// analyze is AnalyzeSharingSource over a hand-built trace.
func analyze(t *testing.T, tr *Trace, g memory.Geometry) *SharingProfile {
	t.Helper()
	p, err := AnalyzeSharingSource(FromTrace(tr), g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSharingProfile(t *testing.T) {
	g := memory.DefaultGeometry()
	tr := &Trace{Streams: []Stream{
		{{Kind: Read, Addr: 0}, {Kind: Read, Addr: 64}, {Kind: Write, Addr: 128}},
		{{Kind: Read, Addr: 64}, {Kind: Read, Addr: 128}},
	}}
	p := analyze(t, tr, g)
	if p.Use(0).WriteShared() || p.Use(0).SharedRead() {
		t.Error("line 0 is private")
	}
	if !p.Use(64).SharedRead() {
		t.Error("line 64 is read-shared")
	}
	if !p.Use(128).WriteShared() {
		t.Error("line 128 is write-shared (written by proc 0, read by proc 1)")
	}
	priv, rs, ws := p.Counts()
	if priv != 1 || rs != 1 || ws != 1 {
		t.Errorf("Counts = %d,%d,%d; want 1,1,1", priv, rs, ws)
	}
	lines := p.WriteSharedLines()
	if len(lines) != 1 || lines[0] != 128 {
		t.Errorf("WriteSharedLines = %v", lines)
	}
}

func TestSharingProfileCountsLockLinesAsWriteShared(t *testing.T) {
	g := memory.DefaultGeometry()
	tr := &Trace{Streams: []Stream{
		{{Kind: Lock, Addr: 256}, {Kind: Unlock, Addr: 256}},
		{{Kind: Lock, Addr: 256}, {Kind: Unlock, Addr: 256}},
	}}
	p := analyze(t, tr, g)
	if !p.WriteShared(256) {
		t.Error("lock line should be write-shared")
	}
}

func TestSharingProfileWordInLineSameLine(t *testing.T) {
	g := memory.DefaultGeometry()
	tr := &Trace{Streams: []Stream{
		{{Kind: Write, Addr: 4}},
		{{Kind: Read, Addr: 28}}, // same 32-byte line as address 4
	}}
	p := analyze(t, tr, g)
	if !p.WriteShared(4) || !p.WriteShared(28) {
		t.Error("accesses to different words of one line must share")
	}
}

func TestSummarize(t *testing.T) {
	g := memory.DefaultGeometry()
	tr := &Trace{Streams: []Stream{
		{
			{Kind: Read, Addr: 0},
			{Kind: Write, Addr: 64},
			{Kind: Prefetch, Addr: 128},
			{Kind: Lock, Addr: 192},
			{Kind: Unlock, Addr: 192},
			{Kind: Barrier, Addr: 0},
		},
		{
			{Kind: Read, Addr: 64},
			{Kind: Barrier, Addr: 0},
		},
	}}
	st := SummarizeSource(FromTrace(tr), g)
	if st.Reads != 2 || st.Writes != 1 || st.Prefetches != 1 || st.Locks != 1 {
		t.Errorf("counts: %+v", st)
	}
	if st.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1 episode", st.Barriers)
	}
	// Only line 64 is shared: the lock line is touched by one process.
	if st.SharedData != g.LineSize {
		t.Errorf("SharedData = %d, want %d", st.SharedData, g.LineSize)
	}
}
