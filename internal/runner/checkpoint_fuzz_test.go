package runner

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzCheckpointFrame feeds arbitrary bytes to parseCheckpoint, the frame
// reader behind every checkpoint and result-store file on disk, which a
// crash or bit rot can damage. It must never panic, and any frame it accepts
// must survive a re-encode/re-parse round trip unchanged. With withCRC set
// the input gets its correct CRC32 footer appended, so mutations get past
// the CRC check to the magic, version and length checks behind it.
func FuzzCheckpointFrame(f *testing.F) {
	valid := encodeCheckpoint("busprefetch-cell/v3|wl=mp3d", []byte(`{"Cycles":1}`))
	f.Add(valid, false)
	f.Add(valid[:len(valid)-4], true)       // the body, footer appended
	f.Add(valid[:len(valid)/2], false)      // truncated
	f.Add([]byte("BPCK\x02"), true)         // unsupported version
	f.Add([]byte("XXXX\x01\x00\x00"), true) // bad magic
	f.Add(binary.AppendUvarint([]byte("BPCK\x01"), maxCkptKeyLen+1), true)

	f.Fuzz(func(t *testing.T, data []byte, withCRC bool) {
		if withCRC {
			// The full slice expression makes append copy, leaving the
			// fuzzer's input untouched.
			data = binary.LittleEndian.AppendUint32(data[:len(data):len(data)], crc32.ChecksumIEEE(data))
		}
		key, payload, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		key2, payload2, err := parseCheckpoint(encodeCheckpoint(key, payload))
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		if key2 != key || !bytes.Equal(payload2, payload) {
			t.Errorf("round trip diverged: key %q -> %q, payload %q -> %q", key, key2, payload, payload2)
		}
	})
}
