// Package interconnect generalizes the machine's contended memory fabric
// into one concrete type, Fabric: request admission, service discipline,
// occupancy accounting, and the grant/complete callbacks the coherence
// layer snoops through. The paper hard-codes a single
// split-transaction bus; this package keeps that machine as the zero-value
// configuration — byte-identical to the pre-seam simulator — and adds the
// topologies the paper's open question needs:
//
//   - SingleBus: the paper's bus, with a selectable service discipline
//     (bus.Priority, the paper's arbitration, or bus.FCFS per the related
//     queueing analyses).
//   - MultiBus: N independent data buses with address-interleaved routing
//     (line address modulo N), each with its own arbitration and occupancy
//     stats — the mid-1990s scale-out answer.
//   - Directory: a point-to-point model in which every line has a home node
//     reached through its own link, with a fixed directory-lookup latency
//     added to each transaction's uncontended phase — the "what replaced
//     buses" endpoint.
//
// Every topology is the same composition — bus.Bus links, a routing
// function and an admission latency — so Fabric is a struct, not an
// interface. A request's line address (bus.Request.Addr), shifted right by
// the route shift New takes, picks its link, so transactions on the same
// line still serialize on one resource and the grant remains the coherence
// serialization point. The sharer bookkeeping in internal/sim is already
// directory-precise — snoops touch only caches that hold copies — so the
// topologies differ purely in timing and bandwidth, never in coherence
// outcomes.
package interconnect
