// Package cache implements the per-processor data cache simulated in the
// paper: direct-mapped, copy-back, 32 KB with 32-byte lines. The same
// structure doubles, with different geometry, as the offline uniprocessor
// cache filter and as the 16-line fully-associative temporal-locality filter
// used by the PWS prefetching strategy.
//
// The package stores cache state and per-line bookkeeping; the coherence
// state machine itself lives in internal/coherence (one Protocol
// implementation per protocol), and the protocol's bus side (who supplies
// data, when invalidations are posted) in internal/sim, which sees all
// caches at once. SnoopTable applies a protocol-supplied transition table
// and is, beside Allocate, the one state-changing snoop primitive; the
// SnoopInvalidate and SnoopRead conveniences call it with the
// write-invalidate transitions shared by Illinois and MSI.
//
// Tags is a duplicate-tag array shared by a group of caches: the snoop
// filter that lets the simulator send a bus operation only to the caches
// holding a valid copy of its line. Allocate and SnoopTable keep it
// current, and it is exact — a holder set names precisely the caches whose
// HoldsValid is true for the line.
package cache
