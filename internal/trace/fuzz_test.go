package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// encodeBytes is a test helper: Encode into memory or fail the test.
func encodeBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedTrace is a small trace exercising every event kind, signed address
// deltas, and an empty stream.
func fuzzSeedTrace() *Trace {
	return &Trace{Name: "seed", Streams: []Stream{
		{
			{Kind: Read, Addr: 0x1000, Gap: 3},
			{Kind: Write, Addr: 0x0800}, // negative delta
			{Kind: Prefetch, Addr: 0x8000_0000},
			{Kind: PrefetchExcl, Addr: 0x20, Gap: 1 << 20},
			{Kind: Lock, Addr: 0x40},
			{Kind: Unlock, Addr: 0x40},
			{Kind: Barrier, Addr: 7},
		},
		{},
		{{Kind: Read, Addr: 0}},
	}}
}

// FuzzDecode feeds arbitrary bytes to Decode. Decode must never panic or
// allocate unboundedly, whatever the input; and anything it does accept must
// survive a re-encode/re-decode round trip unchanged.
func FuzzDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := Encode(&valid, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncated mid-stream
	f.Add([]byte("XXXX\x02\x00\x00\x00"))       // bad magic
	f.Add([]byte("BPTR\x63"))                   // unsupported version
	// A header declaring a huge event count with no bytes to back it.
	huge := []byte("BPTR\x02\x00\x01")
	huge = binary.AppendUvarint(huge, maxStreamEvents)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Errorf("round trip diverged:\n first %+v\nsecond %+v", tr, again)
		}
	})
}

// FuzzDecodeSource feeds arbitrary bytes to DecodeSource. It must never
// panic; it must accept exactly the inputs Decode accepts and Validate
// passes; and for accepted inputs the streamed events must equal the
// materialized trace event for event — the two decoders are one format.
func FuzzDecodeSource(f *testing.F) {
	var valid bytes.Buffer
	if err := Encode(&valid, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())                        // decodes, but fails Validate
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncated mid-stream
	f.Add(encodeValidSeed(f))
	f.Add(encodeHiddenInvalid(f))
	f.Add([]byte("XXXX\x02\x00\x00\x00")) // bad magic
	f.Add([]byte("BPTR\x63"))             // unsupported version
	f.Add([]byte("BPTR\x01\x00\x00\x00")) // v1 with a trailing byte
	huge := []byte("BPTR\x02\x00\x01")
	huge = binary.AppendUvarint(huge, maxStreamEvents)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, terr := Decode(bytes.NewReader(data))
		if terr == nil {
			terr = tr.Validate()
		}
		src, serr := DecodeSource(bytes.NewReader(data))
		if (terr == nil) != (serr == nil) {
			t.Fatalf("decoders disagree: Decode+Validate err %v, DecodeSource err %v", terr, serr)
		}
		if serr != nil {
			return
		}
		if src.Name() != tr.Name || src.Procs() != tr.Procs() {
			t.Fatalf("source header (%q, %d) != trace header (%q, %d)",
				src.Name(), src.Procs(), tr.Name, tr.Procs())
		}
		for p := 0; p < src.Procs(); p++ {
			var got Stream
			for chunk := range src.Events(p) {
				got = append(got, chunk...)
			}
			if len(got) != len(tr.Streams[p]) {
				t.Fatalf("proc %d: streamed %d events, materialized %d", p, len(got), len(tr.Streams[p]))
			}
			for i := range got {
				if got[i] != tr.Streams[p][i] {
					t.Fatalf("proc %d event %d: streamed %+v, materialized %+v", p, i, got[i], tr.Streams[p][i])
				}
			}
		}
	})
}

// encodeValidSeed encodes a trace that passes Validate, so the fuzzer's
// seed corpus reaches the event-by-event comparison.
func encodeValidSeed(tb testing.TB) []byte {
	tb.Helper()
	tr := &Trace{Name: "valid", Streams: []Stream{
		{
			{Kind: Read, Addr: 0x1000, Gap: 3},
			{Kind: Lock, Addr: 0x40},
			{Kind: Write, Addr: 0x0800},
			{Kind: Unlock, Addr: 0x40},
			{Kind: Barrier, Addr: 7},
			{Kind: Prefetch, Addr: 0x8000_0000},
		},
		{{Kind: Barrier, Addr: 7}, {Kind: PrefetchExcl, Addr: 0x20, Gap: 1 << 20}},
	}}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodeHiddenInvalid encodes a trace whose invalid event sits behind a
// deadlock: p1 waits on the lock p0 holds across the barrier, so a replay
// that checks events as they retire stalls before reaching p1's release of
// the never-acquired lock 0x80.
func encodeHiddenInvalid(tb testing.TB) []byte {
	tb.Helper()
	tr := &Trace{Name: "hidden", Streams: []Stream{
		{{Kind: Lock, Addr: 0x40}, {Kind: Barrier, Addr: 1}, {Kind: Unlock, Addr: 0x40}},
		{{Kind: Lock, Addr: 0x40}, {Kind: Unlock, Addr: 0x80}, {Kind: Barrier, Addr: 1}},
	}}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSourceRejectsHiddenInvalidTrace pins the up-front check: the
// file is well formed, so only Validate's rules can reject it, and
// DecodeSource must apply them before returning.
func TestDecodeSourceRejectsHiddenInvalidTrace(t *testing.T) {
	_, err := DecodeSource(bytes.NewReader(encodeHiddenInvalid(t)))
	if err == nil {
		t.Fatal("DecodeSource accepted a trace that releases an unheld lock")
	}
	if !strings.Contains(err.Error(), "releases unheld lock 0x80") {
		t.Errorf("error = %v, want the unheld-lock diagnosis", err)
	}
	if _, err := DecodeSource(bytes.NewReader(encodeValidSeed(t))); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// TestDecodeRejectsBitFlips flips a single bit at every byte offset of a valid
// version-2 file. Every flip must be rejected — by a structural check or, for
// bytes the structure cannot see, by the CRC footer — and none may panic.
// (Bit flips are applied inline rather than via check.Injector because
// internal/check imports this package.)
func TestDecodeRejectsBitFlips(t *testing.T) {
	data := encodeBytes(t, fuzzSeedTrace())
	for i := range data {
		for _, mask := range []byte{0x01, 0x80} {
			corrupt := bytes.Clone(data)
			corrupt[i] ^= mask
			if _, err := Decode(bytes.NewReader(corrupt)); err == nil {
				t.Errorf("flip of bit mask %#02x at byte %d went undetected", mask, i)
			}
		}
	}
}

// TestDecodeV1StillSupported hand-builds a version-1 stream (no CRC footer)
// and checks this build still reads it: old trace files stay replayable.
func TestDecodeV1StillSupported(t *testing.T) {
	var b []byte
	b = append(b, codecMagic...)
	b = append(b, 1) // version 1
	b = binary.AppendUvarint(b, 2)
	b = append(b, "v1"...)
	b = binary.AppendUvarint(b, 2) // two processors
	// Proc 0: Read 0x1000 gap 3, then Write 0x800 (negative delta).
	b = binary.AppendUvarint(b, 2)
	b = append(b, byte(Read))
	b = binary.AppendUvarint(b, 3)
	b = binary.AppendVarint(b, 0x1000)
	b = append(b, byte(Write))
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendVarint(b, -0x800)
	// Proc 1: empty.
	b = binary.AppendUvarint(b, 0)

	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("version-1 stream rejected: %v", err)
	}
	want := &Trace{Name: "v1", Streams: []Stream{
		{
			{Kind: Read, Addr: 0x1000, Gap: 3},
			{Kind: Write, Addr: 0x800},
		},
		{},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded v1 trace:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	data := encodeBytes(t, fuzzSeedTrace())
	data = append(data, 0x00)
	_, err := Decode(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Decode accepted trailing data after the CRC footer")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("trailing")) {
		t.Errorf("error %q does not mention trailing data", err)
	}
}

// TestDecodeHugeDeclaredCountNoOOM checks both sides of the event-count caps:
// counts over the hard limit are rejected outright, and a large-but-legal
// declared count backed by a tiny file fails on the missing bytes without
// first allocating event storage for the declared size.
func TestDecodeHugeDeclaredCountNoOOM(t *testing.T) {
	header := func(events uint64) []byte {
		var b []byte
		b = append(b, codecMagic...)
		b = append(b, 2)               // version
		b = binary.AppendUvarint(b, 0) // empty name
		b = binary.AppendUvarint(b, 1) // one processor
		b = binary.AppendUvarint(b, events)
		return b
	}
	if _, err := Decode(bytes.NewReader(header(maxStreamEvents + 1))); err == nil {
		t.Error("Decode accepted an event count over the hard limit")
	}
	// 2^27 events would be gigabytes of Stream if the declared count were
	// trusted; the prealloc cap keeps this to at most preallocEvents entries
	// before the read fails on the empty body. -test.timeout and the test
	// runner's memory both stay comfortable if the cap works.
	if _, err := Decode(bytes.NewReader(header(1 << 27))); err == nil {
		t.Error("Decode accepted a huge declared count with no body")
	}
}

// TestCodecV2FooterPresent pins the on-disk layout: a version-2 file ends in
// exactly four CRC bytes after the event data, and re-encoding is
// deterministic.
func TestCodecV2FooterPresent(t *testing.T) {
	tr := &Trace{Name: "f", Streams: []Stream{{{Kind: Read, Addr: 0x40}}}}
	a := encodeBytes(t, tr)
	b := encodeBytes(t, tr)
	if !bytes.Equal(a, b) {
		t.Error("Encode is not deterministic")
	}
	if a[4] != 2 {
		t.Errorf("version byte = %d, want 2", a[4])
	}
	// Chopping the 4-byte footer must break decoding (footer is mandatory).
	if _, err := Decode(bytes.NewReader(a[:len(a)-4])); err == nil {
		t.Error("Decode accepted a v2 stream with the footer removed")
	}
	// Corrupting only the footer must be caught as a CRC mismatch.
	c := bytes.Clone(a)
	c[len(c)-1] ^= 0xFF
	_, err := Decode(bytes.NewReader(c))
	if err == nil {
		t.Fatal("Decode accepted a corrupted CRC footer")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("CRC mismatch")) {
		t.Errorf("error %q is not a CRC mismatch", err)
	}
}
