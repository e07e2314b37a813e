package trace

import (
	"math/bits"
	"sort"

	"busprefetch/internal/memory"
)

// LineUse summarizes how one cache line is used across the whole trace.
type LineUse struct {
	// Readers and Writers are bitmasks of processor indices (processor p is
	// bit p). Traces in this repository never exceed 64 processors.
	Readers uint64
	Writers uint64
}

// SharedRead reports whether at least two processors access the line and
// nobody writes it.
func (u LineUse) SharedRead() bool {
	return u.Writers == 0 && u.Readers&(u.Readers-1) != 0
}

// WriteShared reports whether the line is written by at least one processor
// and accessed by at least two (the paper's write-shared data, the PWS
// strategy's target class).
func (u LineUse) WriteShared() bool {
	m := u.Readers | u.Writers
	return u.Writers != 0 && m&(m-1) != 0
}

// SharingProfile maps each referenced cache line to its usage summary. It is
// an open-addressed table keyed by line number (Fibonacci hashing, linear
// probing, at most half full), so its memory grows with the lines the trace
// touches however widely their addresses are spread. Once built it is
// read-only: suite cells and an annotated source's processors query one
// profile from many goroutines at once, so no query writes to it.
type SharingProfile struct {
	lineShift uint
	slots     []lineSlot
	shift     uint // 64 - log2(len(slots))
	n         int
}

// lineSlot is one table entry: the line number plus one (0 marks an empty
// slot; lines are at least four bytes, so the key cannot wrap) and the
// line's usage.
type lineSlot struct {
	key uint64
	use LineUse
}

func newSharingProfile(geom memory.Geometry) *SharingProfile {
	p := &SharingProfile{lineShift: uint(bits.TrailingZeros64(uint64(geom.LineSize)))}
	p.resize(64)
	return p
}

// resize rehashes the table into n slots, a power of two.
func (p *SharingProfile) resize(n int) {
	old := p.slots
	p.slots = make([]lineSlot, n)
	p.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.key != 0 {
			p.slots[p.slot(s.key)] = s
		}
	}
}

// slot returns key's slot, or the empty slot that ends its probe run. The
// table is never more than half full, so the run always ends.
func (p *SharingProfile) slot(key uint64) int {
	mask := len(p.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> p.shift)
	for p.slots[i].key != key && p.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// key returns the table key of the line containing a.
func (p *SharingProfile) key(a memory.Addr) uint64 { return uint64(a)>>p.lineShift + 1 }

// observe folds one event of processor bit's stream into the profile.
// Prefetch events are ignored: sharing is a property of the program, and
// this analysis also runs before prefetch insertion to identify the
// write-shared lines PWS should target. Lock words are write-shared by
// construction: the acquire and release perform read-modify-writes.
func (p *SharingProfile) observe(e Event, bit uint64) {
	var w uint64
	switch e.Kind {
	case Read:
	case Write, Lock, Unlock:
		w = bit
	default:
		return
	}
	key := p.key(e.Addr)
	i := p.slot(key)
	if p.slots[i].key == 0 {
		if 2*(p.n+1) > len(p.slots) {
			p.resize(2 * len(p.slots))
			i = p.slot(key)
		}
		p.slots[i].key = key
		p.n++
	}
	u := &p.slots[i].use
	u.Readers |= bit
	u.Writers |= w
}

// AnalyzeSharingSource scans every demand reference of src, one drain per
// processor, and classifies each touched cache line. Line classification
// only ORs per-processor bits, so it is independent of event order and of
// chunking. The error is always nil.
func AnalyzeSharingSource(src Source, geom memory.Geometry) (*SharingProfile, error) {
	p := newSharingProfile(geom)
	for proc := 0; proc < src.Procs(); proc++ {
		bit := uint64(1) << uint(proc)
		for chunk := range src.Events(proc) {
			for _, e := range chunk {
				p.observe(e, bit)
			}
		}
	}
	return p, nil
}

// Use returns the usage summary for the line containing a: the zero
// LineUse for a line the trace never touches.
func (p *SharingProfile) Use(a memory.Addr) LineUse {
	return p.slots[p.slot(p.key(a))].use
}

// WriteShared reports whether the line containing a is write-shared.
func (p *SharingProfile) WriteShared(a memory.Addr) bool {
	return p.Use(a).WriteShared()
}

// Counts returns the number of distinct lines that are private, read-shared
// and write-shared, in that order.
func (p *SharingProfile) Counts() (private, readShared, writeShared int) {
	for _, s := range p.slots {
		if s.key == 0 {
			continue
		}
		u := s.use
		switch {
		case u.WriteShared():
			writeShared++
		case u.SharedRead():
			readShared++
		default:
			private++
		}
	}
	return
}

// TotalLines returns how many distinct cache lines the trace touches.
func (p *SharingProfile) TotalLines() int { return p.n }

// WriteSharedLines returns the sorted addresses of all write-shared lines.
func (p *SharingProfile) WriteSharedLines() []memory.Addr {
	var out []memory.Addr
	for _, s := range p.slots {
		if s.key != 0 && s.use.WriteShared() {
			out = append(out, memory.Addr((s.key-1)<<p.lineShift))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes a trace for reports and for the paper's Table 1.
type Stats struct {
	Procs       int
	Events      int
	DemandRefs  int
	Reads       int
	Writes      int
	Prefetches  int
	Locks       int
	Barriers    int
	TouchedData int // bytes of distinct cache lines referenced
	SharedData  int // bytes of distinct cache lines referenced by >=2 procs
	WriteShared int // bytes of distinct write-shared cache lines
}

// SummarizeSource computes whole-trace statistics using geom for line
// accounting, fusing the event counting and the sharing analysis into a
// single drain per processor.
func SummarizeSource(src Source, geom memory.Geometry) Stats {
	st := Stats{Procs: src.Procs()}
	prof := newSharingProfile(geom)
	for proc := 0; proc < src.Procs(); proc++ {
		bit := uint64(1) << uint(proc)
		for chunk := range src.Events(proc) {
			st.Events += len(chunk)
			for _, e := range chunk {
				switch e.Kind {
				case Read:
					st.Reads++
				case Write:
					st.Writes++
				case Prefetch, PrefetchExcl:
					st.Prefetches++
				case Lock:
					st.Locks++
				case Barrier:
					st.Barriers++
				}
				prof.observe(e, bit)
			}
		}
	}
	st.DemandRefs = st.Reads + st.Writes
	st.Barriers /= max(1, st.Procs) // count barrier episodes, not arrivals
	st.TouchedData = prof.TotalLines() * geom.LineSize
	for _, s := range prof.slots {
		if m := s.use.Readers | s.use.Writers; m&(m-1) != 0 {
			st.SharedData += geom.LineSize
		}
		if s.use.WriteShared() {
			st.WriteShared += geom.LineSize
		}
	}
	return st
}
