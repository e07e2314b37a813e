// Package runner is the parallel experiment engine behind
// internal/experiments: a bounded worker pool that shards independent
// simulation cells across CPUs, a singleflight trace cache that lets the
// five prefetch strategies of one workload share one planned source and one
// sharing profile, and a benchmark report that records the wall-clock
// trajectory of a suite run.
//
// Determinism is the package's contract. The pool executes tasks in whatever
// order the scheduler picks, but every reduction — errors, timings — comes
// back indexed by the caller's input order, so a caller that submits cells
// in canonical order observes canonical results regardless of worker count.
// The trace cache guarantees each key is planned exactly once, by exactly
// one goroutine; everyone else blocks until the plan completes and then
// shares the restartable source.
package runner
