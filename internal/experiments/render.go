package experiments

import (
	"context"
	"fmt"
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
// and its renderer, which builds the section's rows from its cells,
// running through the suite's executor any cell not memoized yet.
type section struct {
	name   string
	render func(s *Suite, ctx context.Context) (string, error)
}

// sections lists the report in presentation order.
var sections = []section{
	{"table1", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Table1()
		return RenderTable1(rows), err
	}},
	{"fig1", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Figure1()
		return RenderFigure1(rows), err
	}},
	{"table2", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Table2()
		return RenderTable2(rows), err
	}},
	{"fig2", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Figure2()
		return RenderFigure2(rows, s.cfg.Transfers), err
	}},
	{"util", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Utilization()
		return RenderUtilization(rows), err
	}},
	{"fig3", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Figure3()
		return RenderFigure3(rows), err
	}},
	{"table3", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Table3()
		return RenderTable3(rows), err
	}},
	{"table4", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Table4()
		return RenderTable4(rows), err
	}},
	{"table5", func(s *Suite, _ context.Context) (string, error) {
		rows, err := s.Table5()
		return RenderTable5(rows, s.cfg.Transfers), err
	}},
	{"ablations", func(s *Suite, ctx context.Context) (string, error) {
		var bodies []string
		for _, sw := range reportSweeps {
			rows, err := s.rows(ctx, sw)
			if err != nil {
				return "", err
			}
			bodies = append(bodies, RenderAblation(sw.title, rows))
		}
		return strings.Join(bodies, "\n"), nil
	}},
	// The three-way coherence ablation is its own section so the golden
	// harness can pin it (testdata/golden_protocol_t8.txt) without
	// re-running the other sweeps.
	{"protocols", func(s *Suite, ctx context.Context) (string, error) {
		rows, err := s.rows(ctx, reportProtocols)
		return RenderAblation(reportProtocols.title, rows), err
	}},
	// The observability, online and interconnect sections each have their
	// own golden file (testdata/golden_{obs,online,interconnect}_t8.txt)
	// pinning the T=8 point without re-running the grid.
	{"observability", func(s *Suite, ctx context.Context) (string, error) {
		rows, err := s.Observability(ctx, nil)
		return RenderObservability(rows), err
	}},
	{"online", func(s *Suite, ctx context.Context) (string, error) {
		rows, err := s.Online(ctx, nil, nil)
		return RenderOnline(rows), err
	}},
	{"interconnect", func(s *Suite, ctx context.Context) (string, error) {
		rows, err := s.Interconnect(ctx, nil)
		return RenderInterconnect(rows), err
	}},
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
// prewarming: want selects sections by name. The sections with sweeps of
// their own (ablations, protocols, observability, online, interconnect) run
// their cells on the pool when rendered, through the same executor, so a
// cell they share with the grid or with each other still simulates once.
// The list takes one allocation, sized up front.
func (s *Suite) KeysFor(want func(name string) bool) []Key {
	grid := want("fig1") || want("table2") || want("fig2") || want("util") || want("fig3") || want("table3")
	restructured := want("table4") || want("table5")
	names, strategies := WorkloadNames(), prefetch.Strategies()
	n := 0
	if grid {
		n += len(names) * len(strategies)
	}
	if restructured {
		n += len(restructuredWorkloads) * len(restructuredStrategies)
	}
	keys := make([]Key, 0, n*len(s.cfg.Transfers))
	if grid {
		keys = s.appendGrid(keys, names, strategies, false)
	}
	if restructured {
		keys = s.appendGrid(keys, restructuredWorkloads, restructuredStrategies, true)
	}
	return keys
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
