package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"iter"

	"busprefetch/internal/memory"
)

// DecodeSource reads an encoded trace and returns it as a restartable
// streaming Source instead of a materialized Trace. The whole input is
// checked up front: every count, kind, gap and the CRC footer, with the
// same bounds as Decode, and then the trace rules of Validate (lock
// nesting, barrier sequences), so a malformed file fails here rather
// than as a deadlocked replay, and no stream of the returned Source can
// fail. The events are decoded lazily into one pooled chunk at a time as
// each processor's sequence runs: a persisted BPTR trace replays without
// ever allocating its full event array.
func DecodeSource(r io.Reader) (Source, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading encoded trace: %w", err)
	}
	d := &byteCursor{buf: raw}
	if string(d.take(len(codecMagic))) != codecMagic {
		return nil, fmt.Errorf("trace: bad magic (not a BPTR trace)")
	}
	ver, ok := d.byte()
	if !ok {
		return nil, fmt.Errorf("trace: reading version: %w", io.ErrUnexpectedEOF)
	}
	if ver < 1 || ver > codecVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (this build reads versions 1-%d)", ver, codecVersion)
	}
	nameLen, ok := d.uvarint()
	if !ok {
		return nil, fmt.Errorf("trace: reading name length: %w", io.ErrUnexpectedEOF)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds the %d-byte limit", nameLen, maxNameLen)
	}
	name := d.take(int(nameLen))
	if name == nil {
		return nil, fmt.Errorf("trace: reading name: %w", io.ErrUnexpectedEOF)
	}
	procs, ok := d.uvarint()
	if !ok {
		return nil, fmt.Errorf("trace: reading processor count: %w", io.ErrUnexpectedEOF)
	}
	if procs > maxCodecProcs {
		return nil, fmt.Errorf("trace: %d processors exceeds the %d-processor limit", procs, maxCodecProcs)
	}
	src := &decodedSource{name: string(name), streams: make([]decodedStream, procs)}
	for p := range src.streams {
		n, ok := d.uvarint()
		if !ok {
			return nil, fmt.Errorf("trace: proc %d: reading event count: %w", p, io.ErrUnexpectedEOF)
		}
		if n > maxStreamEvents {
			return nil, fmt.Errorf("trace: proc %d declares %d events, limit %d", p, n, maxStreamEvents)
		}
		start := d.off
		// Validation walk: every event's kind, gap and delta are checked
		// here so lazy iteration can never fail mid-simulation.
		for i := uint64(0); i < n; i++ {
			kb, ok := d.byte()
			if !ok {
				return nil, fmt.Errorf("trace: proc %d event %d: reading kind: %w", p, i, io.ErrUnexpectedEOF)
			}
			if Kind(kb) >= numKinds {
				return nil, fmt.Errorf("trace: proc %d event %d: unknown kind %d", p, i, kb)
			}
			gap, ok := d.uvarint()
			if !ok {
				return nil, fmt.Errorf("trace: proc %d event %d: reading gap: %w", p, i, io.ErrUnexpectedEOF)
			}
			if gap > 1<<32-1 {
				return nil, fmt.Errorf("trace: proc %d event %d: gap %d overflows", p, i, gap)
			}
			if _, ok := d.varint(); !ok {
				return nil, fmt.Errorf("trace: proc %d event %d: reading address delta: %w", p, i, io.ErrUnexpectedEOF)
			}
		}
		src.streams[p] = decodedStream{data: raw[start:d.off], n: n}
	}
	if ver >= 2 {
		if len(raw)-d.off != 4 {
			if len(raw)-d.off < 4 {
				return nil, fmt.Errorf("trace: reading CRC footer: %w", io.ErrUnexpectedEOF)
			}
			return nil, fmt.Errorf("trace: trailing data after CRC footer")
		}
		want := binary.LittleEndian.Uint32(raw[d.off:])
		if got := crc32.ChecksumIEEE(raw[:d.off]); got != want {
			return nil, fmt.Errorf("trace: CRC mismatch: footer %08x, computed %08x (corrupt trace file)", want, got)
		}
	} else if d.off != len(raw) {
		return nil, fmt.Errorf("trace: %d trailing bytes after events", len(raw)-d.off)
	}
	if err := validate(src); err != nil {
		return nil, err
	}
	return src, nil
}

// byteCursor is a bounds-checked reader over an in-memory buffer.
type byteCursor struct {
	buf []byte
	off int
}

func (d *byteCursor) take(n int) []byte {
	if n < 0 || d.off+n > len(d.buf) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *byteCursor) byte() (byte, bool) {
	if d.off >= len(d.buf) {
		return 0, false
	}
	b := d.buf[d.off]
	d.off++
	return b, true
}

func (d *byteCursor) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

func (d *byteCursor) varint() (int64, bool) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

// decodedSource streams events straight out of the validated encoded
// bytes. Restartable: each run of an Events sequence walks the stream's
// byte range from the beginning.
type decodedSource struct {
	name    string
	streams []decodedStream
}

type decodedStream struct {
	data []byte
	n    uint64
}

func (s *decodedSource) Name() string { return s.name }

func (s *decodedSource) Procs() int { return len(s.streams) }

func (s *decodedSource) Events(proc int) iter.Seq[[]Event] {
	st := s.streams[proc]
	return func(yield func([]Event) bool) {
		buf := GetChunk()
		defer PutChunk(buf)
		d := byteCursor{buf: st.data}
		var prev uint64
		for rem := st.n; rem > 0; {
			buf = buf[:0]
			for ; rem > 0 && len(buf) < cap(buf); rem-- {
				// The validation walk in DecodeSource proved these bytes
				// well formed, so the decodes here cannot fail.
				kb, _ := d.byte()
				gap, _ := d.uvarint()
				delta, _ := d.varint()
				prev += uint64(delta)
				buf = append(buf, Event{Kind: Kind(kb), Gap: uint32(gap), Addr: memory.Addr(prev)})
			}
			if !yield(buf) {
				return
			}
		}
	}
}
