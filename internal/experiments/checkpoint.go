package experiments

import (
	"encoding/json"
	"fmt"

	"busprefetch/internal/buildinfo"
	"busprefetch/internal/bus"
	"busprefetch/internal/obs"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
)

// Checkpointing persists completed cells through Config.Checkpoints so an
// interrupted sweep (Ctrl-C, a crash, kill -9) resumes with only the
// missing cells recomputed. Every cell of every section — grid, ablation,
// online or ladder — takes the same path: one key format, the canonical
// Key spelled out field by field behind the run-wide spec and the build
// revision, so any configuration or code change misses cleanly instead of
// resurrecting stale data; and one payload, an all-integer JSON snapshot:
// integers round-trip JSON exactly, so a resumed sweep renders
// byte-identical reports.
//
// Only successful results are checkpointed; errors always re-run.

// snapshot is the persisted form of one cell's sim.Result. Every field is
// integral (uint64s, arrays and maps of uint64s; obs.Summary keeps fixed
// histogram bucket counts, not floats), so the JSON round-trip is exact
// and a resumed render is byte-identical to the original.
type snapshot struct {
	Cycles       uint64
	Counters     sim.Counters
	Bus          bus.Stats
	Links        []bus.Stats `json:",omitempty"`
	Procs        []sim.ProcStats
	RegionMisses map[string]sim.RegionMisses `json:",omitempty"`
	Obs          *obs.Summary                `json:",omitempty"`
	Online       *prefetch.EngineStats       `json:",omitempty"`
}

// checkpointsEnabled reports whether the suite may consult the checkpoint
// store. A PerRun hook can silently change what a cell computes, so with one
// installed the store is only trusted when the caller segregated the
// namespace with a Salt that names the variation.
func (s *Suite) checkpointsEnabled() bool {
	return s.cfg.Checkpoints != nil && (s.cfg.PerRun == nil || s.cfg.Salt != "")
}

// SpecString returns the canonical suite-configuration spec: every
// Config field that is invariant across a sweep's cells, plus the build
// revision. The experiment server keys its content-addressed result store
// on it (plus the per-request fields it omits — the transfer sweep and the
// section list), so two sweeps that agree on the spec share one
// computation and any code or configuration change misses cleanly instead
// of resurrecting stale reports.
func (c Config) SpecString() string {
	c = c.withDefaults()
	return fmt.Sprintf("build=%s|salt=%s|scale=%g|seed=%d|mem=%d|proto=%s|pf=%s|ic=%s",
		buildinfo.Revision(), c.Salt, c.Scale, c.Seed, c.MemLatency, c.Protocol, c.Prefetcher, c.Interconnect.String())
}

// cellKey is the checkpoint key for one cell: the build revision, the
// run-wide inputs a Key does not carry (salt, scale, seed), and the Key's
// spelling.
func (s *Suite) cellKey(k Key) string {
	return fmt.Sprintf("busprefetch-cell/v3|build=%s|salt=%s|scale=%g|seed=%d|%s",
		buildinfo.Revision(), s.cfg.Salt, s.cfg.Scale, s.cfg.Seed, k.SpecString())
}

// loadCheckpoint returns the persisted result for k, if the store holds a
// valid one. The Result's Config is rebuilt from k without PerRun:
// checkpointing under PerRun requires a Salt, and the Config field is
// diagnostic, not measured.
func (s *Suite) loadCheckpoint(k Key) (*sim.Result, bool) {
	if !s.checkpointsEnabled() {
		return nil, false
	}
	payload, ok, err := s.cfg.Checkpoints.Get(s.cellKey(k))
	if err != nil || !ok {
		return nil, false
	}
	var snap snapshot
	if json.Unmarshal(payload, &snap) != nil || snap.Obs == nil {
		return nil, false
	}
	cfg, _ := machine(k)
	return &sim.Result{
		Config:       cfg,
		Cycles:       snap.Cycles,
		Counters:     snap.Counters,
		Bus:          snap.Bus,
		Links:        snap.Links,
		Procs:        snap.Procs,
		RegionMisses: snap.RegionMisses,
		Obs:          snap.Obs,
		Online:       snap.Online,
	}, true
}

// storeCheckpoint persists a completed cell. Best-effort: a full or
// read-only checkpoint volume must not fail the sweep, so errors are dropped
// (the cell simply re-runs on resume) and surface only through
// CheckpointStore.Stats.
func (s *Suite) storeCheckpoint(k Key, res *sim.Result) {
	if !s.checkpointsEnabled() {
		return
	}
	payload, err := json.Marshal(snapshot{
		Cycles:       res.Cycles,
		Counters:     res.Counters,
		Bus:          res.Bus,
		Links:        res.Links,
		Procs:        res.Procs,
		RegionMisses: res.RegionMisses,
		Obs:          res.Obs,
		Online:       res.Online,
	})
	if err != nil {
		return
	}
	_ = s.cfg.Checkpoints.Put(s.cellKey(k), payload)
}
