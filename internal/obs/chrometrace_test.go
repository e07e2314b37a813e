package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"busprefetch/internal/bus"
)

// TestChromeTraceValidates decodes the exported JSON back through the Trace
// Event Format schema the acceptance criteria name: a traceEvents array of
// events with name/ph/ts/pid/tid, "X" events carrying dur.
func TestChromeTraceValidates(t *testing.T) {
	r := New(2, Options{Spans: true})
	r.Wait(0, PhaseMemWait, 10, 110)
	r.Wait(1, PhaseLockWait, 5, 50)
	r.BusOccupied(0, 10, 8, bus.OpFill, bus.Demand, 0)
	r.BusOccupied(0, 30, 2, bus.OpInvalidate, bus.Demand, 1)
	r.ProcFinished(0, 200)
	r.ProcFinished(1, 200)
	r.Finish(200)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *uint64         `json:"ts"`
			Dur  uint64          `json:"dur"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var meta, complete, busEvents int
	for _, ev := range f.TraceEvents {
		if ev.Ts == nil || ev.Pid == nil || ev.Tid == nil || ev.Name == "" {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if *ev.Tid == 2 { // bus track for a 2-proc recorder
				busEvents++
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 { // proc 0, proc 1, bus
		t.Errorf("metadata events = %d, want 3", meta)
	}
	// 2 waits + 2 compute gaps (none at t=0... proc0 has compute [0,10)? No:
	// Wait(0,...,10,110) emits compute [0,10) and mem-wait; proc1 compute
	// [0,5) and lock-wait; two ProcFinished tails; two bus spans.
	if complete < 6 {
		t.Errorf("complete events = %d, want >= 6", complete)
	}
	if busEvents != 2 {
		t.Errorf("bus-track events = %d, want 2", busEvents)
	}
}

func TestChromeTraceNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	var r *Recorder
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil-recorder trace invalid: %v", err)
	}
	if _, ok := f["traceEvents"]; !ok {
		t.Fatal("nil-recorder trace missing traceEvents")
	}

	buf.Reset()
	if err := New(1, Options{}).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("span-less trace invalid: %v", err)
	}
}
