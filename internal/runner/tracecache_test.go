package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

func testKey(name string, restructured bool) TraceKey {
	return TraceKey{Workload: name, Scale: 0.1, Seed: 1, Restructured: restructured}
}

func generate(name string, restructured bool) func() (trace.Source, workload.Info, error) {
	return func() (trace.Source, workload.Info, error) {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, workload.Info{}, err
		}
		return w.Source(workload.Params{Scale: 0.1, Seed: 1, Restructured: restructured})
	}
}

// TestTraceCacheSingleflight is the regression test for shared-planner
// races: many goroutines demand the same source at once, exactly one plan
// runs (misses == 1), everyone observes the same source, and every other
// caller is a hit — waiters on an in-flight plan count as hits, not
// misses. Run under -race this fails if planning ever starts sharing
// mutable state across goroutines.
func TestTraceCacheSingleflight(t *testing.T) {
	c := NewTraceCache()
	var generations atomic.Int64
	const goroutines = 16
	results := make([]trace.Source, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, _, err := c.GetSource(context.Background(), testKey("mp3d", false), func() (trace.Source, workload.Info, error) {
				generations.Add(1)
				return generate("mp3d", false)()
			})
			if err != nil {
				t.Errorf("GetSource: %v", err)
				return
			}
			results[i] = tr
		}(i)
	}
	wg.Wait()
	if n := generations.Load(); n != 1 {
		t.Errorf("%d plans ran, want exactly 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Errorf("goroutine %d got a different source", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("stats = %d hits, %d misses; want %d, 1", hits, misses, goroutines-1)
	}
}

func TestTraceCacheDistinctKeys(t *testing.T) {
	c := NewTraceCache()
	a, _, err := c.GetSource(context.Background(), testKey("water", false), generate("water", false))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.GetSource(context.Background(), TraceKey{Workload: "water", Scale: 0.1, Seed: 2}, func() (trace.Source, workload.Info, error) {
		w, _ := workload.ByName("water")
		return w.Source(workload.Params{Scale: 0.1, Seed: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different seeds shared a cache entry")
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
}

// TestTraceCacheGeometryNormalization: the zero geometry and the explicit
// default geometry describe the same generation, so they must share one
// entry — this is what lets ablations at the default geometry reuse the
// suite's base sources.
func TestTraceCacheGeometryNormalization(t *testing.T) {
	c := NewTraceCache()
	k0 := testKey("water", false)
	kd := k0
	kd.Geometry = memory.DefaultGeometry()
	a, _, err := c.GetSource(context.Background(), k0, generate("water", false))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.GetSource(context.Background(), kd, generate("water", false))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero geometry and default geometry did not share an entry")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

func TestTraceCacheMemoizesErrors(t *testing.T) {
	c := NewTraceCache()
	boom := errors.New("generation broke")
	var calls atomic.Int64
	bad := func() (trace.Source, workload.Info, error) {
		calls.Add(1)
		return nil, workload.Info{}, boom
	}
	if _, _, err := c.GetSource(context.Background(), testKey("mp3d", true), bad); !errors.Is(err, boom) {
		t.Fatalf("first GetSource: %v", err)
	}
	if _, _, err := c.GetSource(context.Background(), testKey("mp3d", true), bad); !errors.Is(err, boom) {
		t.Fatalf("second GetSource: %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("failed generation ran %d times, want 1", calls.Load())
	}
}

// TestTraceCacheSourceSingleflight is the streaming side of
// TestTraceCacheSingleflight: concurrent GetSource callers share one plan,
// and then every one of them drains the shared source at the same time.
// Each Events call must hand out an independent sequence, so all callers
// see the identical event stream — this is what lets one cached source
// serve the suite's concurrent cells.
func TestTraceCacheSourceSingleflight(t *testing.T) {
	c := NewTraceCache()
	var generations atomic.Int64
	const goroutines = 16
	results := make([]trace.Source, goroutines)
	digests := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, _, err := c.GetSource(context.Background(), testKey("mp3d", false), func() (trace.Source, workload.Info, error) {
				generations.Add(1)
				w, err := workload.ByName("mp3d")
				if err != nil {
					return nil, workload.Info{}, err
				}
				return w.Source(workload.Params{Scale: 0.1, Seed: 1})
			})
			if err != nil {
				t.Errorf("GetSource: %v", err)
				return
			}
			results[i] = src
			digests[i] = drainDigest(src)
		}(i)
	}
	wg.Wait()
	if n := generations.Load(); n != 1 {
		t.Errorf("%d plans ran, want exactly 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Errorf("goroutine %d got a different source", i)
		}
		if digests[i] != digests[0] {
			t.Errorf("goroutine %d drained a different event stream (digest %#x, want %#x)", i, digests[i], digests[0])
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("stats = %d hits, %d misses; want %d, 1", hits, misses, goroutines-1)
	}
}

// drainDigest ranges over every processor stream of src and folds the
// events, in order, into an FNV-1a style digest.
func drainDigest(src trace.Source) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for p := 0; p < src.Procs(); p++ {
		for chunk := range src.Events(p) {
			for _, e := range chunk {
				h = (h ^ uint64(e.Addr)) * prime
				h = (h ^ uint64(e.Gap)) * prime
				h = (h ^ uint64(e.Kind)) * prime
			}
		}
		h = (h ^ uint64(p)) * prime
	}
	return h
}

// TestTraceCacheSharingProfileSingleflight: the whole-source sharing
// analysis runs once per (key, geometry) however many cells demand it
// concurrently, and everyone observes the same profile.
func TestTraceCacheSharingProfileSingleflight(t *testing.T) {
	c := NewTraceCache()
	w, err := workload.ByName("water")
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := w.Source(workload.Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	geom := memory.DefaultGeometry()
	const goroutines = 8
	profs := make([]*trace.SharingProfile, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.SharingProfile(context.Background(), testKey("water", false), geom, src)
			if err != nil {
				t.Errorf("SharingProfile: %v", err)
				return
			}
			profs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if profs[i] != profs[0] {
			t.Errorf("goroutine %d got a different profile", i)
		}
	}
	// A different geometry is a different profile.
	geom2 := geom
	geom2.LineSize *= 2
	geom2.CacheSize *= 2
	p2, err := c.SharingProfile(context.Background(), testKey("water", false), geom2, src)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == profs[0] {
		t.Error("distinct geometries shared a profile entry")
	}
}

func TestTraceCacheHitRate(t *testing.T) {
	c := NewTraceCache()
	if r := c.HitRate(); r != 0 {
		t.Errorf("empty cache hit rate = %v", r)
	}
	k := testKey("water", false)
	for i := 0; i < 4; i++ {
		if _, _, err := c.GetSource(context.Background(), k, generate("water", false)); err != nil {
			t.Fatal(err)
		}
	}
	if r := c.HitRate(); r != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", r)
	}
}
