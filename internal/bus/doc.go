// Package bus models the contended memory resource of the paper's
// split-transaction bus architecture.
//
// The paper separates the fixed 100-cycle memory latency into an uncontended
// portion (address transmission and memory lookup, assumed pipelined across
// processors) and a contended portion — the data-bus transfer of 4 to 32
// cycles that serializes on a single shared resource and is the machine's
// potential bottleneck. This package implements only the contended resource:
// callers submit a request that becomes Ready after its uncontended phase,
// the bus grants requests one at a time, and each grant occupies the resource
// for the request's Occupancy cycles.
//
// Arbitration is selectable via Discipline. The default, Priority, is the
// paper's machine: round-robin across processors, "favor[ing] blocking loads
// over prefetches" (paper §3.3) — all Demand-class requests are considered
// before any Prefetch-class request, and writebacks come last. FCFS instead
// grants strictly in submission order regardless of class, the alternative
// service discipline the related queueing analyses consider. Both walk
// per-class bitmasks of the processors with pending requests, so a bus
// serves at most 64 processors.
//
// One Bus is one link. internal/interconnect composes buses into larger
// fabrics (multi-bus, directory) and routes requests by Request.Addr; the
// bus itself never interprets the address.
package bus
