package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"busprefetch/internal/prefetch"
)

// This file assembles the full paper report from a suite in one canonical
// order. cmd/mkfigures and the golden-result regression test share it, so
// "what mkfigures prints" and "what the goldens assert" are the same bytes
// by construction — and because every table is rendered from memoized
// results in canonical loops, the assembled report is byte-identical
// regardless of how many workers simulated the cells.

// section is one report section: its name (a valid mkfigures -only value)
// and its renderer, which reads the section's cells, running through the
// suite's executor any cell not memoized yet.
type section struct {
	name   string
	render func(s *Suite, ctx context.Context) (string, error)
}

// gridSection adapts a grid section (tables.go), which notes a failed cell
// in place and so cannot fail as a whole, to a section renderer.
func gridSection(render func(*Suite) string) func(*Suite, context.Context) (string, error) {
	return func(s *Suite, _ context.Context) (string, error) { return render(s), nil }
}

// sections lists the report in presentation order.
var sections = []section{
	{"table1", gridSection((*Suite).table1)},
	{"fig1", gridSection((*Suite).figure1)},
	{"table2", gridSection((*Suite).table2)},
	{"fig2", gridSection((*Suite).figure2)},
	{"util", gridSection((*Suite).utilization)},
	{"fig3", gridSection((*Suite).figure3)},
	{"table3", gridSection((*Suite).table3)},
	{"table4", gridSection((*Suite).table4)},
	{"table5", gridSection((*Suite).table5)},
	{"ablations", func(s *Suite, ctx context.Context) (string, error) {
		bodies := make([]string, len(reportSweeps))
		for i, sw := range reportSweeps {
			var err error
			if bodies[i], err = s.ablation(ctx, sw); err != nil {
				return "", err
			}
		}
		return strings.Join(bodies, "\n"), nil
	}},
	// The three-way coherence ablation is its own section so the golden
	// harness can pin it (testdata/golden_protocol_t8.txt) without
	// re-running the other sweeps.
	{"protocols", func(s *Suite, ctx context.Context) (string, error) { return s.ablation(ctx, reportProtocols) }},
	// The observability, online and interconnect sections each have their
	// own golden file (testdata/golden_{obs,online,interconnect}_t8.txt)
	// pinning the T=8 point without re-running the grid.
	{"observability", func(s *Suite, ctx context.Context) (string, error) {
		return s.observability(ctx, Figure3Workloads())
	}},
	{"online", func(s *Suite, ctx context.Context) (string, error) {
		return s.online(ctx, Figure3Workloads(), onlineTransfers)
	}},
	{"interconnect", func(s *Suite, ctx context.Context) (string, error) { return s.interconnect(ctx, icTransfers) }},
}

// SectionNames lists the report sections in presentation order; these are
// also the valid values of mkfigures' -only flag.
func SectionNames() []string {
	names := make([]string, len(sections))
	for i, sec := range sections {
		names[i] = sec.name
	}
	return names
}

// ValidSection reports whether name selects a known section
// (case-insensitive).
func ValidSection(name string) bool {
	for _, sec := range sections {
		if strings.EqualFold(sec.name, name) {
			return true
		}
	}
	return false
}

// KeysFor returns the grid cells the selected sections read, for
// prewarming: want selects sections by name. It lists the whole workload ×
// strategy grid at each transfer a selected grid section reads: the sweep's
// for Figure 2, and for the others fixed ones the sweep may lack. It lists
// the restructured programs the same way, at the sweep's transfers for
// Table 5 and at T=8 for Table 4, whose original layouts are grid cells at
// T=8. The sections with sweeps of their own (ablations, protocols,
// observability, online, interconnect) run their cells on the pool when
// rendered, through the same executor, so a cell they share with the grid
// or with each other still simulates once. The list takes one allocation,
// sized up front.
func (s *Suite) KeysFor(want func(name string) bool) []Key {
	// Transfer sets on the stack, sized for the service's 16-transfer cap.
	var gridBuf, restrBuf [16]int
	grid, restr := gridBuf[:0], restrBuf[:0]
	if want("fig2") {
		grid = append(grid, s.cfg.Transfers...)
	}
	if want("table2") {
		grid = addTransfers(grid, table2Transfers...)
	}
	if want("util") {
		grid = addTransfers(grid, 4, 32)
	}
	if want("fig1") || want("fig3") || want("table3") || want("table4") {
		grid = addTransfers(grid, 8)
	}
	if want("table5") {
		restr = append(restr, s.cfg.Transfers...)
	}
	if want("table4") {
		restr = addTransfers(restr, 8)
	}
	names, strategies := WorkloadNames(), prefetch.Strategies()
	keys := make([]Key, 0, len(names)*len(strategies)*len(grid)+
		len(restructuredWorkloads)*len(restructuredStrategies)*len(restr))
	keys = s.appendGrid(keys, names, strategies, grid, false)
	return s.appendGrid(keys, restructuredWorkloads, restructuredStrategies, restr, true)
}

// addTransfers appends to set each of trs it lacks.
func addTransfers(set []int, trs ...int) []int {
	for _, tr := range trs {
		if !slices.Contains(set, tr) {
			set = append(set, tr)
		}
	}
	return set
}

// RenderSections renders the selected sections in canonical order and joins
// them exactly as mkfigures prints them. A section that fails to build
// returns an error naming it; per-cell failures inside a grid table do not —
// they render as annotated placeholders (see tables.go). ctx cancels the
// cells the sections still have to run (the grid tables read memoized
// results, computing any missing cell serially).
func (s *Suite) RenderSections(ctx context.Context, want func(name string) bool) (string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var bodies []string
	for _, sec := range sections {
		if !want(sec.name) {
			continue
		}
		body, err := sec.render(s, ctx)
		if err != nil {
			return "", fmt.Errorf("%s: %w", sec.name, err)
		}
		bodies = append(bodies, body)
	}
	return strings.Join(bodies, "\n"), nil
}
