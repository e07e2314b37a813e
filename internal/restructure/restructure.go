package restructure

import (
	"fmt"

	"busprefetch/internal/memory"
)

// Mapper lays out an array of fixed-size records and answers where each
// record (and each word within it) lives.
type Mapper struct {
	base     memory.Addr
	recSize  int
	count    int
	lineSize int
	// perm[i] is the record slot index where logical record i is stored
	// (nil means identity).
	perm []int
	// slotStride is the distance between consecutive slots; >= recSize.
	slotStride int
	size       int
}

// Packed lays records out contiguously — the original layout, in which
// records smaller than a line share lines and writes by different processors
// to neighbouring records falsely share. A non-positive record size or a
// negative count is a layout-configuration error, reported to the caller
// (workload generators surface it through Generate) rather than crashing.
func Packed(base memory.Addr, recSize, count int) (*Mapper, error) {
	if recSize <= 0 || count < 0 {
		return nil, fmt.Errorf("restructure: record size %d must be positive and count %d non-negative", recSize, count)
	}
	return &Mapper{
		base:       base,
		recSize:    recSize,
		count:      count,
		slotStride: recSize,
		size:       recSize * count,
	}, nil
}

// Padded lays each record on its own cache line (or a multiple, for records
// bigger than a line). No two records ever share a line, so writes to one
// record can never falsely invalidate another.
func Padded(base memory.Addr, recSize, count, lineSize int) (*Mapper, error) {
	if recSize <= 0 || count < 0 {
		return nil, fmt.Errorf("restructure: record size %d must be positive and count %d non-negative", recSize, count)
	}
	if lineSize <= 0 {
		return nil, fmt.Errorf("restructure: line size %d must be positive", lineSize)
	}
	stride := ((recSize + lineSize - 1) / lineSize) * lineSize
	return &Mapper{
		base:       base,
		recSize:    recSize,
		count:      count,
		lineSize:   lineSize,
		slotStride: stride,
		size:       stride * count,
	}, nil
}

// BlockedByOwner groups records by owning processor: each processor's
// records are stored contiguously, and each group starts on a fresh cache
// line. Records of different owners never share a line, which removes false
// sharing between owners while keeping each owner's records dense (good
// spatial locality for the owner, unlike Padded). owner must return a value
// in [0, procs); a stray owner is reported as an error naming the offending
// record so the workload author can fix the ownership function.
func BlockedByOwner(base memory.Addr, recSize, count, lineSize, procs int, owner func(i int) int) (*Mapper, error) {
	if recSize <= 0 || count < 0 {
		return nil, fmt.Errorf("restructure: record size %d must be positive and count %d non-negative", recSize, count)
	}
	if procs <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("restructure: procs %d and line size %d must both be positive", procs, lineSize)
	}
	// Count each owner's records, lay groups out line-aligned, then assign
	// slot indices in logical order within each group.
	counts := make([]int, procs)
	for i := 0; i < count; i++ {
		o := owner(i)
		if o < 0 || o >= procs {
			return nil, fmt.Errorf("restructure: owner(%d) = %d outside [0, %d)", i, o, procs)
		}
		counts[o]++
	}
	recsPerLine := lineSize / recSize
	if recsPerLine == 0 {
		recsPerLine = 1
	}
	groupStart := make([]int, procs) // in record slots
	slots := 0
	for o := 0; o < procs; o++ {
		groupStart[o] = slots
		// Round each group up to a whole number of lines worth of slots.
		g := counts[o]
		rounded := ((g + recsPerLine - 1) / recsPerLine) * recsPerLine
		slots += rounded
	}
	next := append([]int(nil), groupStart...)
	perm := make([]int, count)
	for i := 0; i < count; i++ {
		o := owner(i)
		perm[i] = next[o]
		next[o]++
	}
	stride := recSize
	size := slots * stride
	// Groups were rounded to line multiples only if recSize divides the
	// line evenly; otherwise pad the whole array to be safe.
	if lineSize%recSize != 0 {
		return Padded(base, recSize, count, lineSize)
	}
	return &Mapper{
		base:       base,
		recSize:    recSize,
		count:      count,
		lineSize:   lineSize,
		perm:       perm,
		slotStride: stride,
		size:       size,
	}, nil
}

// Elem returns the address of record i's first byte.
func (m *Mapper) Elem(i int) memory.Addr {
	if i < 0 || i >= m.count {
		panic(fmt.Sprintf("restructure: record %d outside [0, %d)", i, m.count))
	}
	slot := i
	if m.perm != nil {
		slot = m.perm[i]
	}
	return m.base + memory.Addr(slot*m.slotStride)
}

// Word returns the address of word w (0-based) within record i.
func (m *Mapper) Word(i, w int) memory.Addr {
	if w < 0 || (w+1)*memory.WordSize > m.recSize {
		panic(fmt.Sprintf("restructure: word %d outside record of %d bytes", w, m.recSize))
	}
	return m.Elem(i) + memory.Addr(w*memory.WordSize)
}

// Size returns the array's total footprint in bytes.
func (m *Mapper) Size() int { return m.size }

// Count returns the number of records.
func (m *Mapper) Count() int { return m.count }
