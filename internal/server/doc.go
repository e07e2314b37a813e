// Package server is the always-on experiment service behind cmd/benchserver:
// an HTTP/JSON API that accepts single simulations (a run's body is
// busprefetch.RunSpec itself, which RunRequest aliases) and whole sweep
// grids, schedules them onto bounded worker goroutines with per-tenant
// queue backpressure, and fronts every computation with a content-addressed
// result store keyed by (canonical spec string, build revision) so a spec
// resubmitted by any client is served from cache without recomputation,
// answered at admission, without a worker, when its result is in memory.
//
// The service is a thin, faithful shell over the existing engine: sweeps run
// through experiments.Suite exactly the way cmd/mkfigures runs them —
// Prewarm the cells on a runner.Pool, reduce in canonical order — so a sweep
// report fetched over HTTP is byte-identical to the same sweep run from the
// command line (pinned by a golden equivalence test and the CI smoke
// script). Determinism at any parallelism is what makes cached, shared
// results safe by construction.
//
// See docs/API.md for the full endpoint reference and DESIGN.md §8 for the
// queueing, keying and sharding architecture.
package server
