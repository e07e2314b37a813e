package experiments

import (
	"context"
	"fmt"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
)

// Tables and figures isolate failures per cell: a run that errors (a
// poisoned configuration, an injected fault, a generation bug) produces a
// row whose Err field carries the diagnosis, and every other cell still
// computes. The renderers print failed cells as "—" and append the error
// beneath the table, so one bad configuration cannot take the whole report
// down.

// errNotes appends per-cell failure annotations beneath a rendered table.
func errNotes(body string, notes []string) string {
	for _, n := range notes {
		body += "  ! " + n + "\n"
	}
	return body
}

// Table1Row describes one workload (paper Table 1).
type Table1Row struct {
	Workload    string
	Description string
	DataSetKB   float64
	SharedKB    float64
	Processes   int
	RefsPerProc int
	// Err is non-empty when the workload failed to generate; the other
	// fields are then zero.
	Err string
}

// Table1 reproduces the paper's workload-characteristics table.
func (s *Suite) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range WorkloadNames() {
		info, err := s.Info(name)
		if err != nil {
			rows = append(rows, Table1Row{Workload: name, Err: err.Error()})
			continue
		}
		refsPerProc, err := s.refsPerProc(name)
		if err != nil {
			rows = append(rows, Table1Row{Workload: name, Err: err.Error()})
			continue
		}
		rows = append(rows, Table1Row{
			Workload:    name,
			Description: info.Description,
			DataSetKB:   float64(info.DataSet) / 1024,
			SharedKB:    float64(info.SharedData) / 1024,
			Processes:   info.Procs,
			RefsPerProc: refsPerProc,
		})
	}
	return rows, nil
}

// refsPerProc counts a workload's demand references per processor,
// draining the source once without materializing the trace.
func (s *Suite) refsPerProc(name string) (int, error) {
	src, _, err := s.sourceFor(context.Background(), name, false, memory.Geometry{})
	if err != nil {
		return 0, err
	}
	_, demand, err := trace.CountEvents(src)
	if err != nil {
		return 0, err
	}
	return demand / src.Procs(), nil
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []Table1Row) string {
	t := report.NewTable("Table 1: Workload used in experiments",
		"Program", "Data Set (KB)", "Shared Data (KB)", "Processes", "Refs/Proc")
	var notes []string
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(r.Workload, "—", "—", "—", "—")
			notes = append(notes, r.Workload+": "+r.Err)
			continue
		}
		t.AddRow(r.Workload, fmt.Sprintf("%.0f", r.DataSetKB), fmt.Sprintf("%.0f", r.SharedKB),
			r.Processes, r.RefsPerProc)
	}
	return errNotes(t.String(), notes)
}

// Figure1Row holds the miss rates of one (workload, strategy) cell of the
// paper's Figure 1 (measured at the 8-cycle transfer latency, as the paper
// plots).
type Figure1Row struct {
	Workload string
	Strategy prefetch.Strategy
	TotalMR  float64
	CPUMR    float64
	AdjMR    float64
	// Err is non-empty when this cell's run failed.
	Err string
}

// Figure1 reproduces the total / CPU / adjusted-CPU miss-rate chart.
func (s *Suite) Figure1() ([]Figure1Row, error) {
	var rows []Figure1Row
	for _, wl := range WorkloadNames() {
		for _, st := range prefetch.Strategies() {
			res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: 8})
			if err != nil {
				rows = append(rows, Figure1Row{Workload: wl, Strategy: st, Err: err.Error()})
				continue
			}
			rows = append(rows, Figure1Row{
				Workload: wl,
				Strategy: st,
				TotalMR:  res.TotalMissRate(),
				CPUMR:    res.CPUMissRate(),
				AdjMR:    res.AdjustedCPUMissRate(),
			})
		}
	}
	return rows, nil
}

// RenderFigure1 formats Figure 1 as a table.
func RenderFigure1(rows []Figure1Row) string {
	t := report.NewTable("Figure 1: Total and CPU miss rates (8-cycle data transfer)",
		"Workload", "Strategy", "Total MR", "CPU MR", "Adjusted CPU MR")
	var notes []string
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(r.Workload, r.Strategy.String(), "—", "—", "—")
			notes = append(notes, fmt.Sprintf("%s/%s: %s", r.Workload, r.Strategy, r.Err))
			continue
		}
		t.AddRow(r.Workload, r.Strategy.String(),
			fmt.Sprintf("%.4f", r.TotalMR), fmt.Sprintf("%.4f", r.CPUMR), fmt.Sprintf("%.4f", r.AdjMR))
	}
	return errNotes(t.String(), notes)
}

// Table2Row is one bus-utilization cell.
type Table2Row struct {
	Workload string
	Strategy prefetch.Strategy
	Transfer int
	BusUtil  float64
	// Err is non-empty when this cell's run failed.
	Err string
}

// Table2 reproduces the selected bus utilizations (the paper reports
// transfers 4, 8, 16 and 32).
func (s *Suite) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, wl := range WorkloadNames() {
		for _, st := range prefetch.Strategies() {
			for _, tr := range []int{4, 8, 16, 32} {
				res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: tr})
				if err != nil {
					rows = append(rows, Table2Row{Workload: wl, Strategy: st, Transfer: tr, Err: err.Error()})
					continue
				}
				rows = append(rows, Table2Row{Workload: wl, Strategy: st, Transfer: tr, BusUtil: res.BusUtilization()})
			}
		}
	}
	return rows, nil
}

// RenderTable2 formats Table 2 with one row per (workload, strategy).
func RenderTable2(rows []Table2Row) string {
	cells := make([]pivotCell, len(rows))
	for i, r := range rows {
		cells[i] = pivotCell{r.Workload, r.Strategy, r.Transfer, fmt.Sprintf("%.2f", r.BusUtil), r.Err}
	}
	return renderPivot("Table 2: Selected bus utilizations", "%d cycles", []int{4, 8, 16, 32}, cells)
}

// pivotCell is one value of a (workload, strategy) × transfer table: the
// formatted number, or the error that replaced it.
type pivotCell struct {
	wl       string
	st       prefetch.Strategy
	tr       int
	val, err string
}

// renderPivot lays cells out one row per (workload, strategy), in the order
// they first appear, and one column per transfer, headed by colFmt. A
// failed cell shows "—" and its error becomes a note under the table.
func renderPivot(title, colFmt string, transfers []int, cells []pivotCell) string {
	headers := []string{"Workload", "Strategy"}
	for _, tr := range transfers {
		headers = append(headers, fmt.Sprintf(colFmt, tr))
	}
	t := report.NewTable(title, headers...)
	type key struct {
		wl string
		st prefetch.Strategy
	}
	vals := map[key]map[int]string{}
	var order []key
	var notes []string
	for _, c := range cells {
		k := key{c.wl, c.st}
		if vals[k] == nil {
			vals[k] = map[int]string{}
			order = append(order, k)
		}
		if c.err != "" {
			vals[k][c.tr] = "—"
			notes = append(notes, fmt.Sprintf("%s/%s/T=%d: %s", c.wl, c.st, c.tr, c.err))
			continue
		}
		vals[k][c.tr] = c.val
	}
	for _, k := range order {
		row := []interface{}{k.wl, k.st.String()}
		for _, tr := range transfers {
			row = append(row, vals[k][tr])
		}
		t.AddRow(row...)
	}
	return errNotes(t.String(), notes)
}

// Figure2Row is one point of the execution-time chart: execution time of a
// strategy relative to NP at the same transfer latency.
type Figure2Row struct {
	Workload string
	Strategy prefetch.Strategy
	Transfer int
	RelTime  float64
	// Err is non-empty when this cell's run — or its NP baseline — failed.
	Err string
}

// Figure2 reproduces the relative-execution-time curves for the four
// prefetching strategies over the data-bus latency sweep.
func (s *Suite) Figure2() ([]Figure2Row, error) {
	// Every strategy but NP, which Strategies lists first.
	return s.relativeTimes(WorkloadNames(), prefetch.Strategies()[1:], false), nil
}

// relativeTimes builds each (workload, strategy, transfer) cell's execution
// time relative to the workload's NP run on the same layout at the same
// transfer latency, over the suite's transfer sweep.
func (s *Suite) relativeTimes(workloads []string, strategies []prefetch.Strategy, restructured bool) []Figure2Row {
	var rows []Figure2Row
	for _, wl := range workloads {
		np := make(map[int]uint64)
		npErr := make(map[int]string)
		for _, tr := range s.cfg.Transfers {
			res, err := s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: tr, Restructured: restructured})
			if err != nil {
				npErr[tr] = fmt.Sprintf("NP baseline failed: %v", err)
				continue
			}
			np[tr] = res.Cycles
		}
		for _, st := range strategies {
			for _, tr := range s.cfg.Transfers {
				row := Figure2Row{Workload: wl, Strategy: st, Transfer: tr}
				if msg, bad := npErr[tr]; bad {
					row.Err = msg
				} else if res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: tr, Restructured: restructured}); err != nil {
					row.Err = err.Error()
				} else if np[tr] == 0 {
					// A degenerate (empty) trace finishes in zero cycles;
					// dividing by it would put NaN in the chart.
					row.Err = "NP baseline ran 0 cycles"
				} else {
					row.RelTime = float64(res.Cycles) / float64(np[tr])
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// RenderFigure2 formats Figure 2 as one chart per workload. A workload with
// any failed cell is reported as a note instead of a misleading partial
// chart.
func RenderFigure2(rows []Figure2Row, transfers []int) string {
	out := ""
	for _, wl := range WorkloadNames() {
		var notes []string
		for _, r := range rows {
			if r.Workload == wl && r.Err != "" {
				notes = append(notes, fmt.Sprintf("%s/%s/T=%d: %s", r.Workload, r.Strategy, r.Transfer, r.Err))
			}
		}
		if len(notes) > 0 {
			out += errNotes(fmt.Sprintf("Figure 2 (%s): omitted, cells failed\n", wl), notes) + "\n"
			continue
		}
		chart := &report.Chart{
			Title:  fmt.Sprintf("Figure 2 (%s): execution time relative to NP vs data-bus latency", wl),
			XLabel: "T cycles",
		}
		for _, tr := range transfers {
			chart.XTicks = append(chart.XTicks, fmt.Sprintf("%d", tr))
		}
		for _, st := range prefetch.Strategies() {
			if st == prefetch.NP {
				continue
			}
			ser := report.Series{Name: st.String()}
			for _, tr := range transfers {
				for _, r := range rows {
					if r.Workload == wl && r.Strategy == st && r.Transfer == tr {
						ser.Points = append(ser.Points, r.RelTime)
					}
				}
			}
			chart.Series = append(chart.Series, ser)
		}
		out += chart.String() + "\n"
	}
	return out
}

// UtilizationRow reports a workload's NP processor utilization at the
// fastest and slowest bus (paper §4.2).
type UtilizationRow struct {
	Workload string
	FastBus  float64 // transfer = 4
	SlowBus  float64 // transfer = 32
	// MaxSpeedup is the bound 1/utilization at the fast bus — "the best any
	// memory-latency hiding technique can do".
	MaxSpeedup float64
	// Err is non-empty when either of the workload's runs failed.
	Err string
}

// Utilization reproduces the processor-utilization discussion of §4.2.
func (s *Suite) Utilization() ([]UtilizationRow, error) {
	var rows []UtilizationRow
	for _, wl := range WorkloadNames() {
		fast, err := s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 4})
		if err != nil {
			rows = append(rows, UtilizationRow{Workload: wl, Err: err.Error()})
			continue
		}
		slow, err := s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 32})
		if err != nil {
			rows = append(rows, UtilizationRow{Workload: wl, Err: err.Error()})
			continue
		}
		u := fast.MeanProcUtilization()
		max := 0.0
		if u > 0 {
			max = 1 / u
		}
		rows = append(rows, UtilizationRow{
			Workload: wl, FastBus: u, SlowBus: slow.MeanProcUtilization(), MaxSpeedup: max,
		})
	}
	return rows, nil
}

// RenderUtilization formats the §4.2 utilization summary.
func RenderUtilization(rows []UtilizationRow) string {
	t := report.NewTable("Processor utilization without prefetching (§4.2)",
		"Workload", "Fast bus (T=4)", "Slow bus (T=32)", "Max possible speedup")
	var notes []string
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(r.Workload, "—", "—", "—")
			notes = append(notes, r.Workload+": "+r.Err)
			continue
		}
		t.AddRow(r.Workload, fmt.Sprintf("%.2f", r.FastBus), fmt.Sprintf("%.2f", r.SlowBus),
			fmt.Sprintf("%.1f", r.MaxSpeedup))
	}
	return errNotes(t.String(), notes)
}

// Figure3Row is the CPU-miss component breakdown of one (workload, strategy)
// bar of the paper's Figure 3.
type Figure3Row struct {
	Workload string
	Strategy prefetch.Strategy
	// Components holds per-class miss rates (misses per demand reference),
	// indexed by sim.MissClass.
	Components [sim.NumMissClasses]float64
	// Err is non-empty when this cell's run failed.
	Err string
}

// Figure3Workloads lists the workloads the paper breaks down in Figure 3.
func Figure3Workloads() []string { return []string{"topopt", "pverify", "mp3d"} }

// Figure3 reproduces the miss-component stacks at the 8-cycle transfer.
func (s *Suite) Figure3() ([]Figure3Row, error) {
	var rows []Figure3Row
	for _, wl := range Figure3Workloads() {
		for _, st := range prefetch.Strategies() {
			res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: 8})
			if err != nil {
				rows = append(rows, Figure3Row{Workload: wl, Strategy: st, Err: err.Error()})
				continue
			}
			row := Figure3Row{Workload: wl, Strategy: st}
			for m := sim.MissClass(0); m < sim.NumMissClasses; m++ {
				row.Components[m] = res.MissClassRate(m)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFigure3 formats Figure 3 as a table of stacked components.
func RenderFigure3(rows []Figure3Row) string {
	t := report.NewTable("Figure 3: Sources of CPU misses (8-cycle data transfer; rates per demand reference)",
		"Workload", "Strategy",
		"non-sharing !pf", "inval !pf", "non-sharing pf", "inval pf", "pf-in-progress", "total")
	var notes []string
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(r.Workload, r.Strategy.String(), "—", "—", "—", "—", "—", "—")
			notes = append(notes, fmt.Sprintf("%s/%s: %s", r.Workload, r.Strategy, r.Err))
			continue
		}
		total := 0.0
		for _, v := range r.Components {
			total += v
		}
		t.AddRow(r.Workload, r.Strategy.String(),
			fmt.Sprintf("%.4f", r.Components[sim.NonSharingNotPref]),
			fmt.Sprintf("%.4f", r.Components[sim.InvalNotPref]),
			fmt.Sprintf("%.4f", r.Components[sim.NonSharingPref]),
			fmt.Sprintf("%.4f", r.Components[sim.InvalPref]),
			fmt.Sprintf("%.4f", r.Components[sim.PrefetchInProgress]),
			fmt.Sprintf("%.4f", total))
	}
	return errNotes(t.String(), notes)
}

// Table3Row reports a workload's invalidation and false-sharing miss rates
// without prefetching.
type Table3Row struct {
	Workload     string
	InvalMR      float64
	FalseShareMR float64
	// FSShare is the fraction of invalidation misses that are false sharing.
	FSShare float64
	// Err is non-empty when this cell's run failed.
	Err string
}

// Table3 reproduces the total invalidation and false-sharing miss rates.
func (s *Suite) Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, wl := range WorkloadNames() {
		res, err := s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 8})
		if err != nil {
			rows = append(rows, Table3Row{Workload: wl, Err: err.Error()})
			continue
		}
		row := Table3Row{
			Workload:     wl,
			InvalMR:      res.InvalidationMissRate(),
			FalseShareMR: res.FalseSharingMissRate(),
		}
		if row.InvalMR > 0 {
			row.FSShare = row.FalseShareMR / row.InvalMR
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	t := report.NewTable("Table 3: Total invalidation and false sharing miss rates (NP, 8-cycle transfer)",
		"Workload", "Total Invalidation MR", "Total False Sharing MR", "FS share of inval")
	var notes []string
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(r.Workload, "—", "—", "—")
			notes = append(notes, r.Workload+": "+r.Err)
			continue
		}
		t.AddRow(r.Workload, fmt.Sprintf("%.4f", r.InvalMR), fmt.Sprintf("%.4f", r.FalseShareMR),
			fmt.Sprintf("%.0f%%", 100*r.FSShare))
	}
	return errNotes(t.String(), notes)
}

// Table4Row reports miss rates for a restructured program under one
// prefetch discipline at the 8-cycle transfer.
type Table4Row struct {
	Workload     string
	Strategy     prefetch.Strategy
	Restructured bool
	CPUMR        float64
	TotalMR      float64
	InvalMR      float64
	FalseShareMR float64
	// Err is non-empty when this cell's run failed.
	Err string
}

// Table4 reproduces the restructured-program miss rates, with the original
// layouts included for comparison.
func (s *Suite) Table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, wl := range []string{"topopt", "pverify"} {
		for _, restr := range []bool{false, true} {
			for _, st := range []prefetch.Strategy{prefetch.NP, prefetch.PREF, prefetch.PWS} {
				res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: 8, Restructured: restr})
				if err != nil {
					rows = append(rows, Table4Row{Workload: wl, Strategy: st, Restructured: restr, Err: err.Error()})
					continue
				}
				rows = append(rows, Table4Row{
					Workload: wl, Strategy: st, Restructured: restr,
					CPUMR:        res.CPUMissRate(),
					TotalMR:      res.TotalMissRate(),
					InvalMR:      res.InvalidationMissRate(),
					FalseShareMR: res.FalseSharingMissRate(),
				})
			}
		}
	}
	return rows, nil
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []Table4Row) string {
	t := report.NewTable("Table 4: Miss rates for restructured programs (8-cycle transfer)",
		"Workload", "Layout", "Strategy", "CPU MR", "Total MR", "Total Inval MR", "Total FS MR")
	var notes []string
	for _, r := range rows {
		layout := "original"
		if r.Restructured {
			layout = "restructured"
		}
		if r.Err != "" {
			t.AddRow(r.Workload, layout, r.Strategy.String(), "—", "—", "—", "—")
			notes = append(notes, fmt.Sprintf("%s/%s/%s: %s", r.Workload, layout, r.Strategy, r.Err))
			continue
		}
		t.AddRow(r.Workload, layout, r.Strategy.String(),
			fmt.Sprintf("%.4f", r.CPUMR), fmt.Sprintf("%.4f", r.TotalMR),
			fmt.Sprintf("%.4f", r.InvalMR), fmt.Sprintf("%.4f", r.FalseShareMR))
	}
	return errNotes(t.String(), notes)
}

// Table5Row reports a restructured program's execution time relative to its
// own NP run at the same transfer latency: Figure 2's quantity.
type Table5Row = Figure2Row

// Table5 reproduces the relative execution times for the restructured
// programs over the transfer sweep.
func (s *Suite) Table5() ([]Table5Row, error) {
	return s.relativeTimes([]string{"topopt", "pverify"}, []prefetch.Strategy{prefetch.PREF, prefetch.PWS}, true), nil
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []Table5Row, transfers []int) string {
	cells := make([]pivotCell, len(rows))
	for i, r := range rows {
		cells[i] = pivotCell{r.Workload, r.Strategy, r.Transfer, fmt.Sprintf("%.3f", r.RelTime), r.Err}
	}
	return renderPivot("Table 5: Relative execution times for restructured programs", "T=%d", transfers, cells)
}

// SharingSummary summarizes a workload's sharing profile (supporting data
// for Table 1 and DESIGN.md).
func (s *Suite) SharingSummary(name string) (trace.Stats, error) {
	src, _, err := s.sourceFor(context.Background(), name, false, memory.Geometry{})
	if err != nil {
		return trace.Stats{}, err
	}
	return trace.SummarizeSource(src, memory.DefaultGeometry())
}
