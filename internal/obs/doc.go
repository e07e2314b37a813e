// Package obs is the simulator's observability layer: a per-run event
// recorder that turns the end-of-run aggregates of internal/sim and
// internal/bus into inspectable timelines and distributions.
//
// Three kinds of signal are captured:
//
//   - Per-processor phase intervals — compute time and each wait cause
//     (memory, lock, barrier, prefetch-buffer slot) — as spans.
//   - Bus occupancy intervals, tagged with the operation (fill, invalidate,
//     writeback, update), arbitration class, and requesting processor.
//   - Full prefetch lifetimes: issue → bus grant → fill → first demand use,
//     or the early ends (demand merged with the fetch still in flight,
//     eviction before use, remote invalidation before use, never used).
//     The classes map onto the coverage / accuracy / timeliness taxonomy of
//     the prefetching-survey literature and the paper's §4 discussion of
//     prefetch fates.
//
// A nil *Recorder is the disabled state: every method is nil-safe, call
// sites in the simulator additionally guard with a nil check, and a disabled
// run performs zero observability allocations (guarded by a benchmark and an
// allocation test). Recording never changes simulated behaviour — the
// recorder only observes times the simulator already computed — so enabling
// it cannot change a single reported number.
//
// A summary-only recorder, which the experiment suite attaches to every
// cell, allocates a fixed handful of objects per run, not per event (guarded
// by TestSummaryRecordingAllocationsBounded): bus grants count into a dense
// (link, op, class) array, each processor's open prefetch lifetimes live by
// value in an open-addressed table, and the string-keyed Summary is built
// once, at the end.
//
// Latency distributions use fixed bucket edges (LatencyBuckets, SlackBuckets)
// so serialized summaries are deterministic across runs, worker counts, and
// platforms.
package obs
