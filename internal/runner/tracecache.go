package runner

import (
	"context"
	"errors"
	"sync"

	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// TraceKey identifies one workload trace. Two suite cells that agree on
// every field replay the identical trace, so they share one planned source
// and, per geometry, one sharing profile — at the paper sweep each
// workload's five strategies share one plan.
type TraceKey struct {
	Workload     string
	Procs        int
	Scale        float64
	Seed         int64
	Restructured bool
	Geometry     memory.Geometry
}

// NormalizeGeometry canonicalizes the key's geometry: the zero Geometry and
// memory.DefaultGeometry() generate identical traces, so they must share a
// cache entry.
func (k TraceKey) NormalizeGeometry() TraceKey {
	if k.Geometry == (memory.Geometry{}) {
		k.Geometry = memory.DefaultGeometry()
	}
	return k
}

// sourceEntry is one cache slot. ready is closed once the planning
// goroutine has filled src/info/err; the fields are immutable afterwards.
type sourceEntry struct {
	ready chan struct{}
	src   trace.Source
	info  workload.Info
	err   error
}

// TraceCache memoizes planned workload sources with singleflight
// semantics: the first goroutine to ask for a key plans it while later
// askers block on the same entry, so concurrent workers never duplicate a
// plan. Sources are restartable and return a fresh iterator per Events
// call, so one cached source serves any number of concurrent cells; the
// events themselves are generated anew on every drain.
//
// Failed plans are memoized too: a broken configuration fails once and
// every cell that needs it gets the same error.
type TraceCache struct {
	mu       sync.Mutex
	sources  map[TraceKey]*sourceEntry
	profiles map[profileKey]*profileEntry
	hits     uint64
	misses   uint64
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{
		sources:  make(map[TraceKey]*sourceEntry),
		profiles: make(map[profileKey]*profileEntry),
	}
}

// GetSource returns the source for k, calling gen to plan it (layout and
// sizing, no event generation) on first use. Every call for the same key
// observes the same (Source, Info, error); gen runs at most once per key,
// on the calling goroutine that missed.
//
// Cancellation cannot poison the cache: a waiter whose ctx fires bails
// with ctx.Err() while the in-flight plan proceeds for everyone else, and
// a plan that itself fails with a cancellation error is evicted before
// its waiters are released — later callers plan again instead of
// inheriting one caller's dead context as a permanent failure.
func (c *TraceCache) GetSource(ctx context.Context, k TraceKey, gen func() (trace.Source, workload.Info, error)) (trace.Source, workload.Info, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k = k.NormalizeGeometry()
	c.mu.Lock()
	if e, ok := c.sources[k]; ok {
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.src, e.info, e.err
		case <-ctx.Done():
			return nil, workload.Info{}, ctx.Err()
		}
	}
	e := &sourceEntry{ready: make(chan struct{})}
	c.sources[k] = e
	c.misses++
	c.mu.Unlock()

	e.src, e.info, e.err = gen()
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// The plan died with its caller's context, not on its own merits:
		// evict the entry (if it is still ours) so the next caller plans
		// again rather than observing the memoized cancellation.
		c.mu.Lock()
		if c.sources[k] == e {
			delete(c.sources, k)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.src, e.info, e.err
}

// profileKey identifies one sharing profile: the trace it describes and
// the line size it was computed at.
type profileKey struct {
	trace TraceKey
	geom  memory.Geometry
}

type profileEntry struct {
	ready chan struct{}
	prof  *trace.SharingProfile
	err   error
}

// SharingProfile memoizes trace.AnalyzeSharingSource(src, geom) per
// (trace key, geometry) with the same singleflight semantics as GetSource: the
// profile pre-pass drains the whole source, so the strategies of one
// sweep cell family (PWS, EXCL variants) must share one analysis instead
// of re-deriving it per cell. src must be the un-annotated source for k.
func (c *TraceCache) SharingProfile(ctx context.Context, k TraceKey, geom memory.Geometry, src trace.Source) (*trace.SharingProfile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pk := profileKey{trace: k.NormalizeGeometry(), geom: geom}
	c.mu.Lock()
	if e, ok := c.profiles[pk]; ok {
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.prof, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &profileEntry{ready: make(chan struct{})}
	c.profiles[pk] = e
	c.mu.Unlock()

	e.prof, e.err = trace.AnalyzeSharingSource(src, geom)
	close(e.ready)
	return e.prof, e.err
}

// Stats returns how many GetSource calls were served from the cache
// (hits, including waits on an in-flight plan) and how many planned
// (misses).
func (c *TraceCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HitRate returns hits / (hits + misses), or 0 before any access.
func (c *TraceCache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
