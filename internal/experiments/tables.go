package experiments

import (
	"context"
	"errors"
	"fmt"

	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/report"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
)

// The grid sections (Table 1, Figures 1-3, Tables 2-5 and the §4.2
// utilizations) each read their cells and write their table or chart
// directly. They isolate failures per cell: a run that errors (a poisoned
// configuration, an injected fault, a generation bug) prints "—" in its
// value columns with the error noted beneath the table, and every other
// cell still computes, so one bad configuration cannot take the whole
// report down.

// gridTable is a grid section's table and the notes of its failed cells.
type gridTable struct {
	*report.Table
	cols  int
	notes []string
}

func newGridTable(title string, headers ...string) *gridTable {
	return &gridTable{Table: report.NewTable(title, headers...), cols: len(headers)}
}

// failed adds the row of a cell that failed with err: its labels, then "—"
// in every value column, with the error noted under the table as name's.
func (t *gridTable) failed(err error, name string, labels ...interface{}) {
	for len(labels) < t.cols {
		labels = append(labels, "—")
	}
	t.AddRow(labels...)
	t.note(name, err)
}

// note records a failed cell's error under the table.
func (t *gridTable) note(name string, err error) {
	t.notes = append(t.notes, name+": "+err.Error())
}

// String renders the table with its notes beneath it.
func (t *gridTable) String() string { return withNotes(t.Table.String(), t.notes) }

// withNotes appends per-cell failure notes beneath a rendered body.
func withNotes(body string, notes []string) string {
	for _, n := range notes {
		body += "  ! " + n + "\n"
	}
	return body
}

// f4 formats a miss rate.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// table1 renders the paper's workload-characteristics table.
func (s *Suite) table1() string {
	t := newGridTable("Table 1: Workload used in experiments",
		"Program", "Data Set (KB)", "Shared Data (KB)", "Processes", "Refs/Proc")
	for _, name := range WorkloadNames() {
		info, err := s.Info(name)
		var refs int
		if err == nil {
			refs, err = s.refsPerProc(name)
		}
		if err != nil {
			t.failed(err, name, name)
			continue
		}
		t.AddRow(name, fmt.Sprintf("%.0f", float64(info.DataSet)/1024),
			fmt.Sprintf("%.0f", float64(info.SharedData)/1024), info.Procs, refs)
	}
	return t.String()
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

// figure1 renders the total, CPU and adjusted-CPU miss rates at the
// 8-cycle transfer latency, as the paper plots them.
func (s *Suite) figure1() string {
	t := newGridTable("Figure 1: Total and CPU miss rates (8-cycle data transfer)",
		"Workload", "Strategy", "Total MR", "CPU MR", "Adjusted CPU MR")
	for _, wl := range WorkloadNames() {
		for _, st := range prefetch.Strategies() {
			res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: 8})
			if err != nil {
				t.failed(err, wl+"/"+st.String(), wl, st.String())
				continue
			}
			t.AddRow(wl, st.String(), f4(res.TotalMissRate()), f4(res.CPUMissRate()), f4(res.AdjustedCPUMissRate()))
		}
	}
	return t.String()
}

// table2Transfers are the transfer latencies whose bus utilizations the
// paper's Table 2 selects.
var table2Transfers = []int{4, 8, 16, 32}

// table2 renders the selected bus utilizations.
func (s *Suite) table2() string {
	var cells []gridCell
	for _, wl := range WorkloadNames() {
		for _, st := range prefetch.Strategies() {
			for _, tr := range table2Transfers {
				c := gridCell{wl: wl, st: st, tr: tr}
				var res *sim.Result
				if res, c.err = s.grid(Key{Workload: wl, Strategy: st, Transfer: tr}); c.err == nil {
					c.val = res.BusUtilization()
				}
				cells = append(cells, c)
			}
		}
	}
	return renderPivot("Table 2: Selected bus utilizations", "%d cycles", "%.2f", table2Transfers, cells)
}

// gridCell is one (workload, strategy, transfer) value of a grid section,
// or the error that replaced it.
type gridCell struct {
	wl  string
	st  prefetch.Strategy
	tr  int
	val float64
	err error
}

func (c gridCell) name() string { return fmt.Sprintf("%s/%s/T=%d", c.wl, c.st, c.tr) }

// renderPivot lays out cells given row by row, one row per (workload,
// strategy) and one column per transfer, headed by colFmt, with values
// printed by valFmt. A failed cell shows "—", its error noted under the
// table.
func renderPivot(title, colFmt, valFmt string, transfers []int, cells []gridCell) string {
	headers := []string{"Workload", "Strategy"}
	for _, tr := range transfers {
		headers = append(headers, fmt.Sprintf(colFmt, tr))
	}
	t := newGridTable(title, headers...)
	for i := 0; i < len(cells); i += len(transfers) {
		row := []interface{}{cells[i].wl, cells[i].st.String()}
		for _, c := range cells[i : i+len(transfers)] {
			if c.err != nil {
				row = append(row, "—")
				t.note(c.name(), c.err)
				continue
			}
			row = append(row, fmt.Sprintf(valFmt, c.val))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// relativeTimes returns each (workload, strategy, transfer) cell's
// execution time relative to the workload's NP run on the same layout at
// the same transfer latency, over the suite's transfer sweep, row by row.
func (s *Suite) relativeTimes(workloads []string, strategies []prefetch.Strategy, restructured bool) []gridCell {
	var cells []gridCell
	for _, wl := range workloads {
		np := make(map[int]uint64)
		npErr := make(map[int]error)
		for _, tr := range s.cfg.Transfers {
			res, err := s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: tr, Restructured: restructured})
			if err != nil {
				npErr[tr] = fmt.Errorf("NP baseline failed: %v", err)
				continue
			}
			np[tr] = res.Cycles
		}
		for _, st := range strategies {
			for _, tr := range s.cfg.Transfers {
				c := gridCell{wl: wl, st: st, tr: tr}
				if err, bad := npErr[tr]; bad {
					c.err = err
				} else if res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: tr, Restructured: restructured}); err != nil {
					c.err = err
				} else if np[tr] == 0 {
					// A degenerate (empty) trace finishes in zero cycles;
					// dividing by it would put NaN in the chart.
					c.err = errors.New("NP baseline ran 0 cycles")
				} else {
					c.val = float64(res.Cycles) / float64(np[tr])
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// figure2 renders the execution time of each prefetching strategy
// relative to NP over the data-bus latency sweep, one chart per workload.
// A workload with any failed cell is reported as a note instead of a
// misleading partial chart.
func (s *Suite) figure2() string {
	strategies := prefetch.Strategies()[1:] // every strategy but NP, which Strategies lists first
	n := len(s.cfg.Transfers)
	out := ""
	for _, wl := range WorkloadNames() {
		cells := s.relativeTimes([]string{wl}, strategies, false)
		var notes []string
		for _, c := range cells {
			if c.err != nil {
				notes = append(notes, c.name()+": "+c.err.Error())
			}
		}
		if len(notes) > 0 {
			out += withNotes(fmt.Sprintf("Figure 2 (%s): omitted, cells failed\n", wl), notes) + "\n"
			continue
		}
		chart := &report.Chart{
			Title:  fmt.Sprintf("Figure 2 (%s): execution time relative to NP vs data-bus latency", wl),
			XLabel: "T cycles",
		}
		for _, tr := range s.cfg.Transfers {
			chart.XTicks = append(chart.XTicks, fmt.Sprintf("%d", tr))
		}
		for i, st := range strategies {
			ser := report.Series{Name: st.String()}
			for _, c := range cells[i*n : (i+1)*n] {
				ser.Points = append(ser.Points, c.val)
			}
			chart.Series = append(chart.Series, ser)
		}
		out += chart.String() + "\n"
	}
	return out
}

// utilization renders each workload's NP processor utilization at the
// fastest and slowest bus, and the bound 1/utilization at the fast bus:
// "the best any memory-latency hiding technique can do" (paper §4.2).
func (s *Suite) utilization() string {
	t := newGridTable("Processor utilization without prefetching (§4.2)",
		"Workload", "Fast bus (T=4)", "Slow bus (T=32)", "Max possible speedup")
	for _, wl := range WorkloadNames() {
		fast, err := s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 4})
		var slow *sim.Result
		if err == nil {
			slow, err = s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 32})
		}
		if err != nil {
			t.failed(err, wl, wl)
			continue
		}
		u := fast.MeanProcUtilization()
		bound := 0.0
		if u > 0 {
			bound = 1 / u
		}
		t.AddRow(wl, fmt.Sprintf("%.2f", u), fmt.Sprintf("%.2f", slow.MeanProcUtilization()), fmt.Sprintf("%.1f", bound))
	}
	return t.String()
}

// Figure3Workloads lists the workloads the paper breaks down in Figure 3.
func Figure3Workloads() []string { return []string{"topopt", "pverify", "mp3d"} }

// figure3 renders the CPU-miss component stacks at the 8-cycle transfer,
// each component in misses per demand reference.
func (s *Suite) figure3() string {
	t := newGridTable("Figure 3: Sources of CPU misses (8-cycle data transfer; rates per demand reference)",
		"Workload", "Strategy",
		"non-sharing !pf", "inval !pf", "non-sharing pf", "inval pf", "pf-in-progress", "total")
	for _, wl := range Figure3Workloads() {
		for _, st := range prefetch.Strategies() {
			res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: 8})
			if err != nil {
				t.failed(err, wl+"/"+st.String(), wl, st.String())
				continue
			}
			total := 0.0
			for m := sim.MissClass(0); m < sim.NumMissClasses; m++ {
				total += res.MissClassRate(m)
			}
			t.AddRow(wl, st.String(),
				f4(res.MissClassRate(sim.NonSharingNotPref)), f4(res.MissClassRate(sim.InvalNotPref)),
				f4(res.MissClassRate(sim.NonSharingPref)), f4(res.MissClassRate(sim.InvalPref)),
				f4(res.MissClassRate(sim.PrefetchInProgress)), f4(total))
		}
	}
	return t.String()
}

// table3 renders each workload's invalidation and false-sharing miss rates
// without prefetching, and the false-sharing share of the invalidations.
func (s *Suite) table3() string {
	t := newGridTable("Table 3: Total invalidation and false sharing miss rates (NP, 8-cycle transfer)",
		"Workload", "Total Invalidation MR", "Total False Sharing MR", "FS share of inval")
	for _, wl := range WorkloadNames() {
		res, err := s.grid(Key{Workload: wl, Strategy: prefetch.NP, Transfer: 8})
		if err != nil {
			t.failed(err, wl, wl)
			continue
		}
		inval, fs := res.InvalidationMissRate(), res.FalseSharingMissRate()
		share := 0.0
		if inval > 0 {
			share = fs / inval
		}
		t.AddRow(wl, f4(inval), f4(fs), fmt.Sprintf("%.0f%%", 100*share))
	}
	return t.String()
}

// table4 renders the restructured programs' miss rates at the 8-cycle
// transfer, with their original layouts for comparison.
func (s *Suite) table4() string {
	t := newGridTable("Table 4: Miss rates for restructured programs (8-cycle transfer)",
		"Workload", "Layout", "Strategy", "CPU MR", "Total MR", "Total Inval MR", "Total FS MR")
	for _, wl := range restructuredWorkloads {
		for _, restr := range []bool{false, true} {
			layout := "original"
			if restr {
				layout = "restructured"
			}
			for _, st := range restructuredStrategies {
				res, err := s.grid(Key{Workload: wl, Strategy: st, Transfer: 8, Restructured: restr})
				if err != nil {
					t.failed(err, fmt.Sprintf("%s/%s/%s", wl, layout, st), wl, layout, st.String())
					continue
				}
				t.AddRow(wl, layout, st.String(), f4(res.CPUMissRate()), f4(res.TotalMissRate()),
					f4(res.InvalidationMissRate()), f4(res.FalseSharingMissRate()))
			}
		}
	}
	return t.String()
}

// table5 renders the restructured programs' execution times relative to
// their own NP runs over the transfer sweep: Figure 2's quantity.
func (s *Suite) table5() string {
	// Every restructured strategy but NP, which the list starts with.
	cells := s.relativeTimes(restructuredWorkloads, restructuredStrategies[1:], true)
	return renderPivot("Table 5: Relative execution times for restructured programs", "T=%d", "%.3f", s.cfg.Transfers, cells)
}
