// Package chaos is the sweep engine's fault-injection soak harness. It
// drives randomized fault plans — watchdog stalls, wedged-but-busy spins,
// coherence-invariant violations, panicking cells, mid-sweep kills, and
// torn checkpoint writes — through real experiment sweeps and asserts the
// engine's resilience contract:
//
//   - Termination: every plan ends. Stalls are diagnosed by the progress
//     watchdog, spins by the per-cell timeout; nothing hangs the soak.
//   - Isolation and classification: each cell runs once, and a faulted plan
//     fails exactly its target cell, with the fault's own error and class
//     (a stall, violation or panic terminal, a spin's deadline retryable),
//     while the rest of the sweep completes.
//   - Store integrity: killing a sweep mid-flight and corrupting checkpoint
//     entries between runs never corrupts results — torn entries self-heal
//     and CheckpointStore.Verify finds a clean store afterwards.
//   - Golden recovery: after any mix of faults, kills, and resumes, a
//     fault-free sweep opened on the plan's store recomputes only the failed
//     cell and renders the byte-identical report a fault-free sweep
//     produces.
//
// The harness lives in the library (not only in a test) so CI's scheduled
// chaos job and local soaks share one implementation: see TestChaosSoak for
// the short deterministic slice and .github/workflows/chaos.yml for the
// randomized scheduled run.
package chaos
