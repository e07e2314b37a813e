package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// The checkpoint store persists completed sweep cells so an interrupted
// sweep — Ctrl-C, a crash, kill -9 — resumes with only the missing cells
// recomputed. It is content-addressed: the caller's key is a canonical spec
// string (workload, strategy, transfer, scale, seed, protocol, build
// version, ...) and the entry's filename is the key's SHA-256, so two sweeps
// that agree on a cell's spec share its result and any spec change misses
// cleanly instead of resurrecting stale data.
//
// Every entry uses the BPTR v2 write discipline: the payload is framed with
// a magic, a version, the full key (verified on read — a hash collision or a
// renamed file cannot alias entries), and a CRC32 footer over every
// preceding byte; writes land via create-temp + rename, so a crash at any
// instant leaves either the complete entry or none. A torn, truncated, or
// bit-flipped entry fails the frame or CRC check on read, is deleted
// (quarantined) and reported as a miss — the store self-heals; it never
// serves corrupt bytes.

const (
	ckptMagic   = "BPCK"
	ckptVersion = 1

	// maxCkptKeyLen and maxCkptPayloadLen bound what Get trusts from a file
	// before allocating: a corrupt length cannot drive an OOM.
	maxCkptKeyLen     = 1 << 16
	maxCkptPayloadLen = 1 << 30
)

// CheckpointStats counts a store's traffic.
type CheckpointStats struct {
	// Hits and Misses count Get outcomes; Corrupt is the subset of misses
	// caused by an entry that existed but failed validation (and was
	// deleted).
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt"`
	// Puts counts successful writes.
	Puts uint64 `json:"puts"`
}

// CheckpointStore is an on-disk content-addressed result store. It is safe
// for concurrent use by multiple goroutines; concurrent processes sharing a
// directory are safe too (writes are atomic renames; double-computing a cell
// wastes work but never corrupts).
type CheckpointStore struct {
	dir string

	mu    sync.Mutex
	stats CheckpointStats
}

// OpenCheckpointStore opens (creating if needed) a store rooted at dir and
// sweeps leftover temp files from a previous crash.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: opening checkpoint store: %w", err)
	}
	// A kill mid-write leaves an orphaned temp file; the rename never
	// happened, so deleting it loses nothing.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runner: opening checkpoint store: %w", err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &CheckpointStore{dir: dir}, nil
}

// writeFileAtomic writes data to path through a temp file in the same
// directory, named <base>.tmp* (the pattern OpenCheckpointStore sweeps),
// and a rename: a reader sees the previous file or the complete new one,
// never a torn write.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Dir returns the store's root directory.
func (s *CheckpointStore) Dir() string { return s.dir }

// Stats returns the traffic counters accumulated so far.
func (s *CheckpointStore) Stats() CheckpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *CheckpointStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:16])+".ckpt")
}

func (s *CheckpointStore) count(f func(*CheckpointStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Put stores payload under key, atomically: concurrent readers see either
// the previous entry or the complete new one, never a torn file.
func (s *CheckpointStore) Put(key string, payload []byte) error {
	if len(key) > maxCkptKeyLen {
		return fmt.Errorf("runner: checkpoint key of %d bytes exceeds the %d-byte limit", len(key), maxCkptKeyLen)
	}
	if len(payload) > maxCkptPayloadLen {
		return fmt.Errorf("runner: checkpoint payload of %d bytes exceeds the %d-byte limit", len(payload), maxCkptPayloadLen)
	}
	if err := writeFileAtomic(s.path(key), encodeCheckpoint(key, payload)); err != nil {
		return fmt.Errorf("runner: writing checkpoint: %w", err)
	}
	s.count(func(st *CheckpointStats) { st.Puts++ })
	return nil
}

// Get returns the payload stored under key. ok is false on a miss — the
// entry does not exist, or it exists but is corrupt (torn write, bit rot,
// wrong key), in which case the bad file is deleted so the recomputed result
// can land cleanly. Get never returns corrupt bytes.
func (s *CheckpointStore) Get(key string) (payload []byte, ok bool, err error) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.count(func(st *CheckpointStats) { st.Misses++ })
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("runner: reading checkpoint: %w", err)
	}
	payload, derr := decodeCheckpoint(key, data)
	if derr != nil {
		// Quarantine: a corrupt entry must not shadow the slot forever.
		os.Remove(path)
		s.count(func(st *CheckpointStats) { st.Misses++; st.Corrupt++ })
		return nil, false, nil
	}
	s.count(func(st *CheckpointStats) { st.Hits++ })
	return payload, true, nil
}

// Len returns the number of entries currently on disk (valid or not).
func (s *CheckpointStore) Len() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			n++
		}
	}
	return n, nil
}

// Verify scans every entry on disk and returns the filenames that fail
// validation (frame, CRC, or name/key hash mismatch). The resume and
// timed-out-cell tests in internal/experiments use it to assert a sweep left
// the store clean; it does not delete anything.
func (s *CheckpointStore) Verify() (corrupt []string, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			corrupt = append(corrupt, name)
			continue
		}
		key, _, derr := parseCheckpoint(data)
		if derr != nil || s.path(key) != filepath.Join(s.dir, name) {
			corrupt = append(corrupt, name)
		}
	}
	return corrupt, nil
}

// encodeCheckpoint frames key+payload:
//
//	magic "BPCK" | version u8 | key len uvarint | key | payload len uvarint |
//	payload | crc32 (IEEE) of everything above, little-endian u32
func encodeCheckpoint(key string, payload []byte) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	data := make([]byte, 0, len(ckptMagic)+1+2*binary.MaxVarintLen64+len(key)+len(payload)+4)
	data = append(data, ckptMagic...)
	data = append(data, ckptVersion)
	data = append(data, lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(key)))]...)
	data = append(data, key...)
	data = append(data, lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(payload)))]...)
	data = append(data, payload...)
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc32.ChecksumIEEE(data))
	return append(data, foot[:]...)
}

// parseCheckpoint validates the frame and CRC and returns the stored key and
// payload.
func parseCheckpoint(data []byte) (key string, payload []byte, err error) {
	if len(data) < len(ckptMagic)+1+4 {
		return "", nil, fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot); got != want {
		return "", nil, fmt.Errorf("checkpoint CRC mismatch: footer %08x, computed %08x", want, got)
	}
	if string(body[:len(ckptMagic)]) != ckptMagic {
		return "", nil, fmt.Errorf("bad checkpoint magic %q", body[:len(ckptMagic)])
	}
	rest := body[len(ckptMagic):]
	if rest[0] != ckptVersion {
		return "", nil, fmt.Errorf("unsupported checkpoint version %d", rest[0])
	}
	rest = rest[1:]
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || keyLen > maxCkptKeyLen || uint64(len(rest)-n) < keyLen {
		return "", nil, fmt.Errorf("bad checkpoint key length")
	}
	rest = rest[n:]
	key, rest = string(rest[:keyLen]), rest[keyLen:]
	payLen, n := binary.Uvarint(rest)
	if n <= 0 || payLen > maxCkptPayloadLen || uint64(len(rest)-n) != payLen {
		return "", nil, fmt.Errorf("bad checkpoint payload length")
	}
	return key, rest[n:], nil
}

// decodeCheckpoint parses data and additionally pins the stored key to the
// requested one.
func decodeCheckpoint(wantKey string, data []byte) ([]byte, error) {
	key, payload, err := parseCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if key != wantKey {
		return nil, fmt.Errorf("checkpoint key mismatch: stored %q, want %q", key, wantKey)
	}
	return payload, nil
}
