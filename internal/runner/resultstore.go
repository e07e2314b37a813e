package runner

import (
	"context"
	"sync"
)

// ResultStore is the content-addressed result cache behind the experiment
// server: completed results are memoized by canonical spec string so a spec
// resubmitted by any client — concurrently or days later — is served without
// recomputation. It memoizes (spec string → opaque payload bytes) in a Memo,
// the same singleflight the TraceCache plans traces with, and layers it
// over an optional CheckpointStore so results survive process restarts behind
// the same CRC-protected, torn-write-quarantining frame checkpoints use.
//
// Keys must embed every input that determines the payload, including the
// build revision (see buildinfo.Revision): the store never expires entries,
// so only a key discipline in which different computations never collide
// makes "serve the cached bytes forever" correct. Determinism makes that
// discipline sufficient — the repo's byte-identical-at-any-parallelism
// goldens are what license serving one tenant's cells to another.
type ResultStore struct {
	disk *CheckpointStore // nil = memory only
	memo Memo[string, []byte]

	mu    sync.Mutex
	stats ResultStats
}

// ResultStats counts a store's traffic.
type ResultStats struct {
	// Hits counts Do calls served without running compute: from a completed
	// entry, by waiting on an in-flight computation of the same key, or from
	// the disk store. Misses counts the calls that ran compute.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// DiskHits is the subset of hits satisfied by the persistent store after
	// a process restart (the in-memory entry did not exist yet).
	DiskHits uint64 `json:"disk_hits"`
}

// NewResultStore returns an empty store. disk, when non-nil, persists every
// computed payload and is consulted on in-memory misses, so results survive
// restarts; a corrupt disk entry is quarantined by the CheckpointStore and
// the result recomputed (see CheckpointStore.Get).
func NewResultStore(disk *CheckpointStore) *ResultStore {
	return &ResultStore{disk: disk}
}

// Stats returns the traffic counters accumulated so far.
func (s *ResultStore) Stats() ResultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of in-memory entries (completed or in flight).
func (s *ResultStore) Len() int { return s.memo.Len() }

// Do returns the payload for key, calling compute to produce it on first
// use. compute runs at most once per key across all concurrent callers: the
// first caller to miss computes while later callers block on the same entry,
// and every call observes the same (payload, error). hit reports whether
// this call was served without running compute. Callers must treat the
// returned payload as immutable.
//
// compute additionally reports whether its payload is cacheable. A
// non-cacheable success (e.g. a sweep report degraded by tolerated cell
// failures — valid for the caller, but a later run with a bigger budget
// could do better) is returned to every caller of this flight but neither
// memoized nor persisted: the entry is evicted so the next submission
// recomputes.
//
// Terminally-failed computations are memoized (a deterministic spec fails
// the same way every time; retry policy belongs inside compute). Failures
// Classify as Retryable — stalls, exhausted timeout budgets — are evicted,
// matching the "might succeed on resubmission" promise their APIError class
// makes to clients. Cancellations are likewise evicted so the next caller
// recomputes instead of inheriting a dead context's failure, and a waiter
// whose own ctx fires bails with ctx.Err() while the in-flight computation
// proceeds for everyone else.
func (s *ResultStore) Do(ctx context.Context, key string, compute func(ctx context.Context) (payload []byte, cacheable bool, err error)) (payload []byte, hit bool, err error) {
	fromDisk := false
	payload, hit, err = s.memo.Do(ctx, key, func() ([]byte, bool, error) {
		if s.disk != nil {
			// A restart dropped the in-memory map but not the disk entries.
			// Get validates frame, CRC and key, quarantining anything
			// corrupt, so whatever comes back is exactly what a compute once
			// produced.
			if data, ok, derr := s.disk.Get(key); derr == nil && ok {
				fromDisk = true
				return data, true, nil
			}
		}
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		payload, cacheable, err := compute(ctx)
		if err != nil {
			// Cancellation never describes the spec; retryable failures
			// promise the client that resubmission might succeed, so
			// honoring that promise requires actually recomputing.
			return payload, !cancelled(err) && Classify(err) == Terminal, err
		}
		if cacheable && s.disk != nil {
			// Best-effort, like cell checkpoints: a full or read-only volume
			// must not fail the computation that just succeeded.
			_ = s.disk.Put(key, payload)
		}
		return payload, cacheable, nil
	})
	if hit || fromDisk {
		s.mu.Lock()
		s.stats.Hits++
		if fromDisk {
			s.stats.DiskHits++
		}
		s.mu.Unlock()
	}
	return payload, hit || fromDisk, err
}
