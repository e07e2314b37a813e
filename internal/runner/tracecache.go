package runner

import (
	"context"
	"sync/atomic"

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

// planned is one planned workload source and its metadata.
type planned struct {
	src  trace.Source
	info workload.Info
}

// profileKey identifies one sharing profile: the trace it describes and
// the line size it was computed at.
type profileKey struct {
	trace TraceKey
	geom  memory.Geometry
}

// TraceCache memoizes planned workload sources, and the sharing profiles
// drawn from them, in two Memos: the first goroutine to ask for a key plans
// it while later askers wait on the same flight, so concurrent workers
// never duplicate a plan. Sources are restartable and return a fresh
// iterator per Events call, so one cached source serves any number of
// concurrent cells; the events themselves are generated anew on every
// drain.
//
// Both memos keep every outcome except a cancellation: a broken
// configuration fails once and every cell that needs it gets the same
// error, but a plan that died with its caller's context is forgotten, so
// the next caller plans again instead of inheriting a dead context as a
// permanent failure.
type TraceCache struct {
	sources  Memo[TraceKey, planned]
	profiles Memo[profileKey, *trace.SharingProfile]
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache { return &TraceCache{} }

// GetSource returns the source for k, calling gen to plan it (layout and
// sizing, no event generation) on first use. Every call for the same key
// observes the same (Source, Info, error); gen runs at most once per key at
// a time, on the calling goroutine that missed. A waiter whose ctx fires
// bails with ctx.Err() while the in-flight plan proceeds for everyone else.
func (c *TraceCache) GetSource(ctx context.Context, k TraceKey, gen func() (trace.Source, workload.Info, error)) (trace.Source, workload.Info, error) {
	p, hit, err := c.sources.Do(ctx, k.NormalizeGeometry(), func() (planned, bool, error) {
		src, info, err := gen()
		return planned{src, info}, !cancelled(err), err
	})
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p.src, p.info, err
}

// SharingProfile memoizes trace.AnalyzeSharingSource(src, geom) per
// (trace key, geometry) under the same rules as GetSource: the profile
// pre-pass drains the whole source, so the strategies of one sweep cell
// family (PWS, EXCL variants) must share one analysis instead of
// re-deriving it per cell. src must be the un-annotated source for k.
func (c *TraceCache) SharingProfile(ctx context.Context, k TraceKey, geom memory.Geometry, src trace.Source) (*trace.SharingProfile, error) {
	prof, _, err := c.profiles.Do(ctx, profileKey{trace: k.NormalizeGeometry(), geom: geom}, func() (*trace.SharingProfile, bool, error) {
		prof, err := trace.AnalyzeSharingSource(src, geom)
		return prof, !cancelled(err), err
	})
	return prof, err
}

// Stats returns how many GetSource calls were served from the cache
// (hits, including waits on an in-flight plan) and how many planned
// (misses).
func (c *TraceCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// HitRate returns hits / (hits + misses), or 0 before any access.
func (c *TraceCache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
