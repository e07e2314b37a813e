package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"busprefetch"
	"busprefetch/internal/coherence"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// pinnedDigest is the digest of one pass of the cells mix at seed 1 and
// the default scale (see digest). A change that moves it changed a simulated result.
const pinnedDigest = "e4b542fcc5f56c2ee9758b407fa78b991cc9cb19c5d6c772642325cd5c18a7d2"

// cellsSetups is how many setups run before the timed phase, and again
// after it.
const cellsSetups = 4

// cellSpec is one spec of the cells mix, with the label its per-layer
// metric carries.
type cellSpec struct {
	label string
	spec  busprefetch.RunSpec
}

// cellsMix is the fixed mix: the paper's default machine on every
// workload and strategy family, then one spec per seam (protocol, fabric,
// arbitration, online engine, victim cache, buffer prefetch), so a gain on
// the default path that costs a seam shows.
func cellsMix(seed int64, scale float64) []cellSpec {
	type v = busprefetch.RunSpec
	specs := []struct {
		variant string
		spec    v
	}{
		{"", v{Workload: "topopt", Strategy: "PREF", Transfer: 8}},
		{"", v{Workload: "mp3d", Strategy: "NP", Transfer: 8}},
		{"", v{Workload: "mp3d", Strategy: "PREF", Transfer: 32}},
		{"", v{Workload: "locus", Strategy: "EXCL", Transfer: 16}},
		{"", v{Workload: "pverify", Strategy: "PWS", Transfer: 8}},
		{"", v{Workload: "water", Strategy: "LPD", Transfer: 8}},
		{"restructured", v{Workload: "pverify", Strategy: "PREF", Transfer: 8, Restructured: true}},
		{"dragon", v{Workload: "mp3d", Strategy: "PREF", Transfer: 8, Protocol: "dragon"}},
		{"msi", v{Workload: "mp3d", Strategy: "EXCL", Transfer: 8, Protocol: "msi"}},
		{"multibus4", v{Workload: "mp3d", Strategy: "PREF", Transfer: 32, Interconnect: "multibus", Buses: 4}},
		{"directory", v{Workload: "mp3d", Strategy: "PREF", Transfer: 32, Interconnect: "directory"}},
		{"fcfs", v{Workload: "mp3d", Strategy: "PREF", Transfer: 8, Discipline: "fcfs"}},
		{"stride", v{Workload: "mp3d", Strategy: "PREF", Transfer: 8, Prefetcher: "stride"}},
		{"temporal", v{Workload: "topopt", Strategy: "PREF", Transfer: 8, Prefetcher: "temporal"}},
		{"pointer", v{Workload: "locus", Strategy: "PREF", Transfer: 8, Prefetcher: "pointer"}},
		{"victim8", v{Workload: "topopt", Strategy: "PREF", Transfer: 8, VictimCacheLines: 8}},
		{"buffer", v{Workload: "mp3d", Strategy: "PREF", Transfer: 8, BufferPrefetch: true}},
	}
	out := make([]cellSpec, len(specs))
	for i, s := range specs {
		label := fmt.Sprintf("%s-%s-t%d", s.spec.Workload, strings.ToLower(s.spec.Strategy), s.spec.Transfer)
		if s.variant != "" {
			label += "-" + s.variant
		}
		s.spec.Seed, s.spec.Scale = seed, scale
		out[i] = cellSpec{label: label, spec: s.spec}
	}
	return out
}

// pipeline is a spec taken apart into the calls busprefetch.RunContext
// makes, so each layer can be timed alone.
type pipeline struct {
	raw     trace.Source
	pf      prefetch.Prefetcher
	opt     prefetch.Options
	sharing bool // the annotator needs the write-shared pre-pass
	cfg     sim.Config
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func newPipeline(spec busprefetch.RunSpec) (*pipeline, error) {
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	geom := memory.Geometry{CacheSize: 32 * 1024, LineSize: 32, Assoc: 1}
	raw, _, err := w.Source(workload.Params{Procs: spec.Procs, Scale: spec.Scale, Seed: spec.Seed,
		Restructured: spec.Restructured, Geometry: geom})
	if err != nil {
		return nil, err
	}
	strat, err := prefetch.ParseStrategy(spec.Strategy)
	if err != nil {
		return nil, err
	}
	kind, err := prefetch.ParsePrefetcher(orDefault(spec.Prefetcher, "oracle"))
	if err != nil {
		return nil, err
	}
	p := &pipeline{raw: raw, pf: prefetch.ByKind(kind), cfg: sim.DefaultConfig(),
		opt: prefetch.Options{Strategy: strat, Geometry: geom,
			ExcludeWriteShared: spec.BufferPrefetch && strat != prefetch.NP}}
	p.sharing = !kind.Online() && (strat == prefetch.PWS || p.opt.ExcludeWriteShared)
	p.cfg.Geometry = geom
	p.cfg.TransferCycles = spec.Transfer
	p.cfg.VictimCacheLines = spec.VictimCacheLines
	if kind.Online() {
		p.cfg.Online = prefetch.OnlineConfig{Kind: kind, Strategy: strat}
	}
	if spec.BufferPrefetch {
		p.cfg.PrefetchTarget = sim.PrefetchToBuffer
	}
	if spec.Protocol != "" {
		if p.cfg.Protocol, err = coherence.Parse(spec.Protocol); err != nil {
			return nil, err
		}
	}
	p.cfg.Interconnect, err = interconnect.ParseConfig(orDefault(spec.Interconnect, "bus"),
		spec.Buses, orDefault(spec.Discipline, "priority"))
	return p, err
}

// annotatedEvents counts the events the simulator will consume for spec.
func annotatedEvents(spec busprefetch.RunSpec) (int, error) {
	p, err := newPipeline(spec)
	if err != nil {
		return 0, err
	}
	ann, err := p.pf.AnnotateSource(p.raw, p.opt, nil)
	if err != nil {
		return 0, err
	}
	n, _, err := trace.CountEvents(ann)
	return n, err
}

// digest hashes one pass's metrics, in mix order.
func digest(outs [][]byte) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runCells is one client calling busprefetch.RunContext in a sequential
// closed loop over the mix. Nothing is memoized on this path, so the
// producer and the simulation kernel do all the work.
func runCells(ctx context.Context, r *run) error {
	if r.workers > 1 {
		return fmt.Errorf("cells is one sequential client; --workers %d does not apply", r.workers)
	}
	r.workers = 1
	mix := cellsMix(r.seed, r.scale)
	r.calls = map[string][]time.Duration{}

	// Setup is the event-count pre-pass. It runs before the timed phase and
	// again after it, so that setup_s, the median, samples the host over
	// the whole run and not just its start.
	events := make([]int, len(mix))
	setUp := func() error {
		start := time.Now()
		for i, c := range mix {
			n, err := annotatedEvents(c.spec)
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			if events[i] != 0 && n != events[i] {
				r.checkFailed("%s: %d annotated events, the first count was %d", c.label, n, events[i])
			}
			events[i] = n
		}
		r.setups = append(r.setups, time.Since(start))
		return nil
	}
	for rep := 0; rep < cellsSetups; rep++ {
		if err := setUp(); err != nil {
			return err
		}
	}
	passEvents := 0
	for _, n := range events {
		passEvents += n
	}

	want := r.digest
	if want == "" && r.seed == 1 && r.scale == defaultScale["cells"] {
		want = pinnedDigest
	}
	var layers *cellLayers
	if r.rec != nil {
		layers = &cellLayers{simulate: map[string][]time.Duration{}}
	}
	// An operation is one pass over the mix: the sum of its RunContext
	// calls. (Single calls differ by up to 10x across the mix, so their
	// median jumps between specs from one seed to the next.)
	var first [][]byte
	var simulated time.Duration
	passes := 0
	deadline := time.Now().Add(r.seconds)
	for passes == 0 || time.Now().Before(deadline) {
		outs := make([][]byte, len(mix))
		var pass time.Duration
		ok := true
		for i, c := range mix {
			var res *sim.Result
			if layers != nil {
				var err error
				if res, err = layers.split(ctx, r.rec, c, events[i]); err != nil {
					ok = false
					r.checkFailed("%s: layer split: %v", c.label, err)
				}
			}
			span := r.rec.begin("busprefetch.run", c.label, -1)
			start := time.Now()
			m, err := busprefetch.RunContext(ctx, c.spec)
			lat := time.Since(start)
			pass += lat
			r.rec.end(span)
			if err != nil {
				ok = false
				r.checkFailed("%s: %v", c.label, err)
				continue
			}
			outs[i], _ = json.Marshal(m)
			callOK := true
			if first != nil && !bytes.Equal(outs[i], first[i]) {
				callOK = false
				r.checkFailed("%s: pass %d metrics differ from pass 1", c.label, passes+1)
			}
			if res != nil && (res.Cycles != m.Cycles || res.Bus.TotalOps() != m.BusOps) {
				callOK = false
				r.checkFailed("%s: layer-by-layer pipeline disagrees with RunContext", c.label)
			}
			if callOK {
				r.calls[c.label] = append(r.calls[c.label], lat)
			}
			ok = ok && callOK
		}
		if passes == 0 {
			first = outs
			d := digest(outs)
			fmt.Fprintf(r.log, "cells digest (seed %d, scale %g): %s\n", r.seed, r.scale, d)
			if want != "" && d != want {
				ok = false
				r.checkFailed("cells digest %s, want %s", d, want)
			}
		}
		simulated += pass
		r.record(op{class: "cells", lat: pass, ok: ok})
		passes++
	}
	fmt.Fprintf(r.log, "cells: %d passes of %d specs, %d simulated events per pass, %.0f events/s\n",
		passes, len(mix), passEvents, float64(passEvents*passes)/simulated.Seconds())
	if layers != nil {
		layers.report(r, passes)
	}
	for rep := 0; rep < cellsSetups; rep++ {
		if err := setUp(); err != nil {
			return err
		}
	}
	return nil
}

// cellLayers accumulates the layer split of the traced cells run.
type cellLayers struct {
	simulate map[string][]time.Duration // per spec label
}

// split drives one spec layer by layer: generate (draining the raw
// source), the sharing pre-pass where the strategy needs it, annotate
// (draining the annotated source, minus generate), and simulate over a
// pre-collected annotated stream so no producer overlaps it.
func (l *cellLayers) split(ctx context.Context, rec *recorder, c cellSpec, events int) (*sim.Result, error) {
	root := rec.begin("cell", c.label, -1)
	defer rec.end(root)
	p, err := newPipeline(c.spec)
	if err != nil {
		return nil, err
	}
	g := rec.begin("workload.generate", c.label, root)
	rawEvents, _, err := trace.CountEvents(p.raw)
	gen := rec.end(g)
	if err != nil {
		return nil, err
	}
	rec.add("workload.events", float64(rawEvents))
	var prof *trace.SharingProfile
	if p.sharing {
		s := rec.begin("trace.sharing", c.label, root)
		prof, err = trace.AnalyzeSharingSource(p.raw, p.opt.Geometry)
		rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	ann, err := p.pf.AnnotateSource(p.raw, p.opt, prof)
	if err != nil {
		return nil, err
	}
	a := rec.begin("prefetch.drain", c.label, root)
	annEvents, _, err := trace.CountEvents(ann)
	drain := rec.end(a)
	if err != nil {
		return nil, err
	}
	if annEvents != events {
		return nil, fmt.Errorf("%d annotated events, setup counted %d", annEvents, events)
	}
	rec.add("prefetch.annotate_ns", float64(max(drain-gen, 0)))
	rec.add("prefetch.events_added", float64(annEvents-rawEvents))
	col := rec.begin("bench.collect", c.label, root)
	collected, err := trace.Materialize(ann)
	rec.end(col)
	if err != nil {
		return nil, err
	}
	s := rec.begin("sim.simulate", c.label, root)
	res, err := sim.RunSourceContext(ctx, p.cfg, trace.FromTrace(collected))
	l.simulate[c.label] = append(l.simulate[c.label], rec.end(s))
	if err != nil {
		return nil, err
	}
	rec.add("sim.events", float64(annEvents))
	rec.add("sim.bus_ops", float64(res.Bus.TotalOps()))
	return res, nil
}

// report sets the cells per-layer metrics, per pass of the mix.
func (l *cellLayers) report(r *run, passes int) {
	sum := r.rec.selfTimeByName()
	per := float64(passes)
	gen, shr, simT, run := sum["workload.generate"], sum["trace.sharing"], sum["sim.simulate"], sum["busprefetch.run"]
	ann := time.Duration(r.rec.count("prefetch.annotate_ns"))
	r.set("workload.generate_ms", ms(gen)/per, "ms")
	r.set("workload.events_per_s", r.rec.count("workload.events")/gen.Seconds(), "1/s")
	r.set("trace.sharing_ms", ms(shr)/per, "ms")
	r.set("prefetch.annotate_ms", ms(ann)/per, "ms")
	r.set("prefetch.events_added", r.rec.count("prefetch.events_added")/per, "count")
	r.set("sim.simulate_ms", ms(simT)/per, "ms")
	r.set("sim.events_per_s", r.rec.count("sim.events")/simT.Seconds(), "1/s")
	r.set("sim.events", r.rec.count("sim.events")/per, "count")
	r.set("sim.bus_ops", r.rec.count("sim.bus_ops")/per, "count")
	for label, ds := range l.simulate {
		r.set("sim.simulate_ms."+label, ms(median(ds)), "ms")
	}
	r.set("busprefetch.overlap_ratio", float64(gen+shr+ann+simT)/float64(run), "ratio")
}
