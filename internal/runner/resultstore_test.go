package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"busprefetch/internal/check"
)

// TestResultStoreSingleflight pins the server cache's core economics: N
// concurrent submissions of one spec run the computation once — misses==1,
// hits==N-1, every caller observing the identical bytes — exactly the stats
// law the TraceCache pins for trace generation.
func TestResultStoreSingleflight(t *testing.T) {
	s := NewResultStore(nil)
	const n = 32
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([][]byte, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, hit, err := s.Do(context.Background(), "spec|build=r1", func(context.Context) ([]byte, bool, error) {
				computes.Add(1)
				return []byte("report"), true, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], hits[i] = payload, hit
		}(i)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	nhits := 0
	for i := range results {
		if !bytes.Equal(results[i], []byte("report")) {
			t.Errorf("caller %d got %q", i, results[i])
		}
		if hits[i] {
			nhits++
		}
	}
	if nhits != n-1 {
		t.Errorf("%d callers reported a hit, want %d", nhits, n-1)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want misses==1, hits==%d", st, n-1)
	}
}

// TestResultStoreRevisionChangeInvalidates pins the cache-invalidation
// discipline: the key embeds the build revision, so a result computed by one
// build can never be served to another — the new revision's key misses
// cleanly and recomputes.
func TestResultStoreRevisionChangeInvalidates(t *testing.T) {
	disk, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewResultStore(disk)
	key := func(rev string) string { return fmt.Sprintf("busprefetch-sweep/v1|build=%s|scale=1|seed=1", rev) }
	compute := func(out string) func(context.Context) ([]byte, bool, error) {
		return func(context.Context) ([]byte, bool, error) { return []byte(out), true, nil }
	}
	if _, hit, _ := s.Do(context.Background(), key("aaaa0000"), compute("old")); hit {
		t.Fatal("first compute reported a hit")
	}
	if payload, hit, _ := s.Do(context.Background(), key("aaaa0000"), compute("WRONG")); !hit || string(payload) != "old" {
		t.Fatalf("same revision: hit=%v payload=%q, want cached %q", hit, payload, "old")
	}
	payload, hit, _ := s.Do(context.Background(), key("bbbb1111"), compute("new"))
	if hit {
		t.Error("revision change was served from cache; stale results resurrected across builds")
	}
	if string(payload) != "new" {
		t.Errorf("new revision got %q, want %q", payload, "new")
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses (one per revision), 1 hit", st)
	}
}

// TestResultStoreDiskRoundTrip proves results survive a restart: a second
// store over the same directory (fresh memory) serves the payload from disk
// without recomputation, and counts it as a disk hit.
func TestResultStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewResultStore(disk)
	if _, _, err := s1.Do(context.Background(), "spec|build=r1", func(context.Context) ([]byte, bool, error) {
		return []byte("persisted"), true, nil
	}); err != nil {
		t.Fatal(err)
	}

	disk2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewResultStore(disk2)
	payload, hit, err := s2.Do(context.Background(), "spec|build=r1", func(context.Context) ([]byte, bool, error) {
		t.Error("compute ran despite a valid disk entry")
		return nil, true, nil
	})
	if err != nil || !hit || string(payload) != "persisted" {
		t.Fatalf("restarted store: payload=%q hit=%v err=%v, want persisted hit", payload, hit, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want exactly one disk hit", st)
	}
}

// TestResultStoreCorruptEntryQuarantined pins the self-healing path: a
// bit-flipped persisted result fails the CheckpointStore's CRC on Get, is
// quarantined (deleted), and the result is recomputed and re-persisted —
// the store never serves corrupt bytes.
func TestResultStoreCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewResultStore(disk)
	if _, _, err := s1.Do(context.Background(), "spec|build=r1", func(context.Context) ([]byte, bool, error) {
		return []byte("good bytes"), true, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in the single .ckpt entry on disk.
	entries, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one persisted entry, got %v (%v)", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	disk2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewResultStore(disk2)
	recomputed := false
	payload, hit, err := s2.Do(context.Background(), "spec|build=r1", func(context.Context) ([]byte, bool, error) {
		recomputed = true
		return []byte("good bytes"), true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !recomputed {
		t.Errorf("corrupt entry served as a hit (hit=%v recomputed=%v)", hit, recomputed)
	}
	if string(payload) != "good bytes" {
		t.Errorf("payload = %q after quarantine", payload)
	}
	if st := disk2.Stats(); st.Corrupt != 1 {
		t.Errorf("checkpoint stats = %+v, want Corrupt==1", st)
	}
	// The recomputed result must have landed cleanly where the corrupt one was.
	if data, ok, _ := disk2.Get("spec|build=r1"); !ok || string(data) != "good bytes" {
		t.Errorf("re-persisted entry = %q ok=%v, want clean replacement", data, ok)
	}
}

// TestResultStoreCancellationNotMemoized mirrors the TraceCache rule: a
// compute that dies with its caller's cancellation is evicted, so the next
// caller recomputes instead of inheriting a dead context's failure forever.
func TestResultStoreCancellationNotMemoized(t *testing.T) {
	s := NewResultStore(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Do(ctx, "k", func(ctx context.Context) ([]byte, bool, error) {
		return nil, false, ctx.Err()
	}); err == nil {
		t.Fatal("cancelled compute returned nil error")
	}
	payload, hit, err := s.Do(context.Background(), "k", func(context.Context) ([]byte, bool, error) {
		return []byte("ok"), true, nil
	})
	if err != nil || hit || string(payload) != "ok" {
		t.Errorf("after cancellation: payload=%q hit=%v err=%v, want fresh compute", payload, hit, err)
	}
}

// TestResultStoreFailureMemoized: a terminally-classified failure is
// memoized like TraceCache generation failures — the broken spec fails once
// and every resubmission gets the same error without recomputation. A
// watchdog stall is such a failure: the replay is deterministic, so the
// stalled spec stalls again on every run.
func TestResultStoreFailureMemoized(t *testing.T) {
	for _, cause := range []error{
		fmt.Errorf("broken spec"),
		fmt.Errorf("run: %w", &check.StallError{Cycle: 206, Reason: "no progress"}),
	} {
		s := NewResultStore(nil)
		var computes int
		fail := func(context.Context) ([]byte, bool, error) {
			computes++
			return nil, false, cause
		}
		if _, _, err := s.Do(context.Background(), "k", fail); err == nil {
			t.Fatal("want error")
		}
		_, hit, err := s.Do(context.Background(), "k", fail)
		if err == nil || !hit || computes != 1 {
			t.Errorf("resubmitted %v: hit=%v err=%v computes=%d, want memoized failure", cause, hit, err, computes)
		}
	}
}

// TestResultStoreRetryableFailureEvicted: a failure that classifies as
// retryable (a run that ran out of its timeout) promises the client that
// resubmission might succeed — so it must not be memoized, or the
// resubmission would replay the cached error without recomputing until the
// process restarts.
func TestResultStoreRetryableFailureEvicted(t *testing.T) {
	s := NewResultStore(nil)
	var computes int
	if _, _, err := s.Do(context.Background(), "k", func(context.Context) ([]byte, bool, error) {
		computes++
		return nil, false, fmt.Errorf("run: %w", context.DeadlineExceeded)
	}); err == nil {
		t.Fatal("want error")
	}
	payload, hit, err := s.Do(context.Background(), "k", func(context.Context) ([]byte, bool, error) {
		computes++
		return []byte("recovered"), true, nil
	})
	if err != nil || hit || string(payload) != "recovered" || computes != 2 {
		t.Errorf("after retryable failure: payload=%q hit=%v err=%v computes=%d, want fresh recompute",
			payload, hit, err, computes)
	}
}

// TestResultStoreUncacheableNotMemoizedOrPersisted: a compute that flags its
// payload non-cacheable (a sweep degraded by tolerated cell failures) serves
// that payload to its caller, but neither the memory tier nor the disk tier
// keeps it — the next submission recomputes, and a restart finds nothing.
func TestResultStoreUncacheableNotMemoizedOrPersisted(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewResultStore(disk)
	payload, hit, err := s.Do(context.Background(), "k", func(context.Context) ([]byte, bool, error) {
		return []byte("degraded"), false, nil
	})
	if err != nil || hit || string(payload) != "degraded" {
		t.Fatalf("uncacheable compute: payload=%q hit=%v err=%v, want the payload served once", payload, hit, err)
	}
	if _, ok, _ := disk.Get("k"); ok {
		t.Error("uncacheable payload was persisted to disk")
	}
	payload, hit, err = s.Do(context.Background(), "k", func(context.Context) ([]byte, bool, error) {
		return []byte("complete"), true, nil
	})
	if err != nil || hit || string(payload) != "complete" {
		t.Errorf("resubmission: payload=%q hit=%v err=%v, want a fresh compute", payload, hit, err)
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses, 0 hits", st)
	}
	if data, ok, _ := disk.Get("k"); !ok || string(data) != "complete" {
		t.Errorf("disk entry = %q ok=%v, want the cacheable result persisted", data, ok)
	}
}

// TestResultStoreLookup: Lookup serves a completed entry from memory,
// payload or memoized failure, and counts it as a hit. It reads the memory
// tier only: a payload that exists only on disk, after a restart, is not
// found, so it stays Do's to load and count as a disk hit.
func TestResultStoreLookup(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewResultStore(disk)
	ctx := context.Background()
	if _, ok, _ := s.Lookup("absent"); ok {
		t.Error("Lookup found a key never computed")
	}
	s.Do(ctx, "ok", func(context.Context) ([]byte, bool, error) { return []byte("payload"), true, nil })
	broken := fmt.Errorf("broken spec")
	s.Do(ctx, "bad", func(context.Context) ([]byte, bool, error) { return nil, false, broken })
	if payload, ok, err := s.Lookup("ok"); !ok || err != nil || string(payload) != "payload" {
		t.Errorf("Lookup(ok) = %q %v %v, want the payload", payload, ok, err)
	}
	if _, ok, err := s.Lookup("bad"); !ok || !errors.Is(err, broken) {
		t.Errorf("Lookup(bad) = %v %v, want the memoized failure", ok, err)
	}
	if st := s.Stats(); st.Hits != 2 || st.Misses != 2 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 2 misses and 2 hits", st)
	}

	disk2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	restarted := NewResultStore(disk2)
	if _, ok, _ := restarted.Lookup("ok"); ok {
		t.Error("Lookup read the disk tier")
	}
	if st := restarted.Stats(); st != (ResultStats{}) {
		t.Errorf("a missed Lookup changed the stats: %+v", st)
	}
}

// TestResultStoreLookupThenDo runs the server's admission pattern from many
// goroutines at once: Lookup first, Do on a miss. However the callers
// interleave with the one computation, it runs once, every caller gets its
// bytes, and each call is counted once, as a hit or the one miss.
func TestResultStoreLookupThenDo(t *testing.T) {
	s := NewResultStore(nil)
	const n = 32
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, ok, err := s.Lookup("spec")
			if !ok {
				payload, _, err = s.Do(context.Background(), "spec", func(context.Context) ([]byte, bool, error) {
					computes.Add(1)
					return []byte("report"), true, nil
				})
			}
			if err != nil || string(payload) != "report" {
				t.Errorf("caller got %q, %v", payload, err)
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, n-1)
	}
}
