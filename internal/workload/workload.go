package workload

import (
	"fmt"
	"iter"
	"math"

	"busprefetch/internal/memory"
	"busprefetch/internal/names"
	"busprefetch/internal/trace"
)

// Params configures trace generation.
type Params struct {
	// Procs is the number of processors; 0 selects the workload default.
	Procs int
	// Scale multiplies the trace length; 1.0 is the calibrated default
	// (roughly 10^5 references per processor). Must be finite and > 0;
	// values below about 0.1 leave too few references for stable
	// statistics. topopt and locus scale smoothly, but mp3d and water run
	// whole time steps and pverify whole passes, at least one, so their
	// length moves in steps and has a floor: processor 0 replays 11,557
	// mp3d events at every scale from 0.05 to 0.2, 19,233 pverify events
	// from 0.05 to 0.3, and 9,873 water events at 0.05 and 0.1.
	Scale float64
	// Seed perturbs the deterministic generators.
	Seed int64
	// Restructured applies the false-sharing-removing layout transformation
	// of internal/restructure (meaningful for Topopt and Pverify, the two
	// programs the paper restructures; other workloads ignore it).
	Restructured bool
	// Geometry supplies the line size used for layout decisions; the zero
	// value selects memory.DefaultGeometry().
	Geometry memory.Geometry
}

func (p Params) withDefaults(defProcs int) Params {
	if p.Procs == 0 {
		p.Procs = defProcs
	}
	if p.Scale == 0 {
		p.Scale = 1.0
	}
	if p.Geometry == (memory.Geometry{}) {
		p.Geometry = memory.DefaultGeometry()
	}
	return p
}

// DefaultProcs is the processor count used for all workloads, standing in
// for the paper's per-program process counts (unreadable in the source
// text); twelve processors is in the range contemporaneous Symmetry studies
// used and reproduces the paper's bus-utilization levels.
const DefaultProcs = 12

// Info describes a workload for reports (the paper's Table 1).
type Info struct {
	Name        string
	Description string
	// DataSet is the total bytes of workload data structures.
	DataSet int
	// SharedData is the bytes of intentionally shared structures.
	SharedData int
	Procs      int
	// Regions lists the workload's named data structures (several entries
	// may share a name, e.g. one scratch region per processor); pass them
	// to sim.Config.Regions to attribute misses to data structures.
	Regions []memory.Region
}

// procPlan is a workload's fixed layout and schedule: everything the
// generator computes before the per-processor loop. emit replays one
// processor's loop body into b; it must be a pure function of (plan,
// proc) so processors can be generated independently, in any order,
// concurrently, and repeatedly with identical results.
type procPlan interface {
	emit(proc int, b *builder)
}

// Workload is a named trace generator.
type Workload struct {
	// Name is the canonical lower-case name (e.g. "mp3d").
	Name string
	// Description is a one-line summary echoing the paper's Table 1.
	Description string
	// DefaultProcs is the processor count used when Params.Procs is zero.
	DefaultProcs int
	plan         func(p Params) (procPlan, Info, error)
}

// planFor validates parameters and computes the workload's plan.
func (w *Workload) planFor(p Params) (Params, procPlan, Info, error) {
	p = p.withDefaults(w.DefaultProcs)
	if !(p.Scale > 0) || math.IsInf(p.Scale, 1) {
		return p, nil, Info{}, fmt.Errorf("workload %s: scale %v must be a finite positive number", w.Name, p.Scale)
	}
	if p.Procs < 2 || p.Procs > 64 {
		return p, nil, Info{}, fmt.Errorf("workload %s: procs %d outside [2, 64]", w.Name, p.Procs)
	}
	if err := p.Geometry.Validate(); err != nil {
		return p, nil, Info{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	pl, info, err := w.plan(p)
	if err != nil {
		return p, nil, Info{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	info.Name = w.Name
	info.Procs = p.Procs
	return p, pl, info, nil
}

// Source returns the workload as a streaming trace.Source: planning
// (layout, sizing) happens up front, but events are produced lazily,
// chunk by chunk, as the consumer ranges over each processor's sequence.
// The source is restartable: every run of a processor's sequence yields
// the identical stream.
func (w *Workload) Source(p Params) (trace.Source, Info, error) {
	p, pl, info, err := w.planFor(p)
	if err != nil {
		return nil, Info{}, err
	}
	return &workloadSource{name: w.Name, procs: p.Procs, plan: pl}, info, nil
}

type workloadSource struct {
	name  string
	procs int
	plan  procPlan
}

func (s *workloadSource) Name() string { return s.name }

func (s *workloadSource) Procs() int { return s.procs }

func (s *workloadSource) Events(proc int) iter.Seq[[]trace.Event] {
	return func(yield func([]trace.Event) bool) {
		b := &builder{events: trace.GetChunk(), yield: yield}
		defer trace.PutChunk(b.events)
		defer func() {
			if r := recover(); r != nil && r != any(stopEmit{}) {
				panic(r)
			}
		}()
		s.plan.emit(proc, b)
		b.finish()
	}
}

// All returns the five workloads in the paper's presentation order.
func All() []*Workload {
	return []*Workload{Topopt(), Mp3d(), LocusRoute(), Pverify(), Water()}
}

// ByName returns the named workload (case-insensitive).
func ByName(name string) (*Workload, error) {
	all := All()
	i, err := names.Parse("workload", names.List(all, func(w *Workload) string { return w.Name }), name)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return all[i], nil
}
