// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): workload characteristics (Table 1), miss rates under the
// five prefetching strategies (Figure 1), bus utilizations (Table 2),
// relative execution times across the memory-architecture sweep (Figure 2),
// processor utilizations (§4.2), the CPU-miss component breakdown (Figure 3),
// invalidation and false-sharing rates (Table 3), and the restructured-
// program results (Tables 4 and 5), plus the ablations, the observability
// slice, the online-engine rows and the interconnect ladder.
//
// Every cell of every section is a Key, and one executor runs them all: the
// Key translates to a simulator configuration and annotation options, and a
// runner.Memo keyed by the Key memoizes the outcome — behind it, the
// checkpoint store, the retry budget and the per-cell timeout. A section is
// a key list plus a renderer, so cells that sections share (the grid cells
// Figure 1, Table 2 and Figure 2 all read, the ablation rows on the paper's
// machine, the grid cells the observability slice and the online oracle
// rows read) simulate once. Every suite cell carries its obs summary, so no
// section simulates a cell again to record it. Runs are independent and
// execute in parallel across CPUs; results are deterministic regardless of
// parallelism.
//
// A Key is also the spec of every single simulation outside the suite:
// Simulate is the one pipeline (Key, machine, the caller's configuration
// edit, annotation, simulation) that the suite, busprefetch.Run and
// cmd/prefetchsim all call, ParseMachine is the one parser of the machine
// names the front ends take, and Key.SpecString is the one spelling of a
// Key in the checkpoint and result stores.
package experiments
