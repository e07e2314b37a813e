// Package trace defines the multiprocessor address-trace representation that
// flows through the whole pipeline as a streaming Source: workload generators
// emit traces, the offline prefetch inserter annotates them, and the
// multiprocessor simulator replays them.
//
// A trace holds one event stream per processor. Each event carries a Gap —
// the number of ordinary (non-memory) instructions executed since the
// previous event — which models the paper's CPU timing of one cycle per
// instruction plus one cycle per data access. Synchronization shows up
// explicitly as Lock/Unlock/Barrier events so the simulator can keep the
// interleaving legal while the memory system perturbs timing (paper §3.3).
package trace
