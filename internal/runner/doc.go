// Package runner is the parallel experiment engine behind
// internal/experiments: a bounded worker pool that shards independent
// simulation cells across CPUs, a retryable/terminal error taxonomy, a
// crash-safe checkpoint store, a singleflight Memo, a trace cache and a
// result store built on it, and a benchmark report that records the
// wall-clock trajectory of a suite run.
//
// Nothing here retries. A cell's result is a pure function of its spec, so
// a cell that stalls, breaks an invariant or panics does so on every run;
// Classify tells a caller whether submitting the same spec again can
// succeed, and only a context deadline says yes.
//
// Memo is the package's one singleflight: the first caller to ask for a key
// computes while later callers wait on the same flight, and a waiter whose
// context fires bails while the flight continues. Each owner says per
// outcome whether it may be kept. The trace cache forgets only
// cancellations; the result store forgets cancellations, deadlines and
// non-cacheable payloads, and pins every other failure; the experiment
// suite (internal/experiments) pins every failure unless its sweep was
// cancelled.
//
// Determinism is the package's contract. The pool executes tasks in whatever
// order the scheduler picks, but every reduction — errors, timings — comes
// back indexed by the caller's input order, so a caller that submits cells
// in canonical order observes canonical results regardless of worker count.
// The trace cache plans each key once, on one goroutine; everyone else
// waits until the plan completes and then shares the restartable source.
package runner
