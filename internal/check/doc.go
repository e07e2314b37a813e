// Package check is the simulator's always-on validation and fault-injection
// subsystem. The paper's results depend on Charlie replaying *legal*
// interleavings through a correct Illinois protocol; this package supplies
// the machinery that turns a protocol bug, a corrupted trace, or a hung
// replay into a structured, diagnosable error instead of a panic:
//
//   - CheckLine verifies a protocol-supplied legality rule (LineRule) for
//     one line across all caches, returning a *Violation with the cycle, the
//     line, and every cache's view of it. InvalidationOwnership is the
//     write-invalidate (Illinois, MSI) rule, UpdateOwnership the
//     write-update (Dragon) rule; internal/coherence selects the rule per
//     protocol, so the checker enforces whatever machine is simulated
//     instead of hardcoded Illinois rules.
//   - PrefetchAccounting verifies a processor's prefetch issue-buffer
//     bookkeeping (the 16-deep lockup-free buffer of paper §3.3).
//   - StallError (watchdog.go) reports a deadlocked or livelocked replay,
//     naming the blocked processors and the synchronization object each one
//     waits on.
//   - Plan and Injector (inject.go) inject faults — dropped lock releases,
//     flipped cache states, truncated trace streams, flipped bits in
//     encoded traces — so tests can prove the checker, the watchdog and the
//     trace codec actually catch each failure class.
package check
