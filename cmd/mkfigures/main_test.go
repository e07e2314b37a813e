package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"busprefetch/internal/runner"
)

func TestRunVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "mkfigures ") {
		t.Errorf("-version output %q does not name the binary", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-only", "nosuch"},
		{"-protocol", "nosuch"},
		{"-interconnect", "nosuch"},
		{"-discipline", "nosuch"},
		{"-interconnect", "bus", "-buses", "2"}, // a single bus is one link
		{"-trace-cell", "mp3d/PREF/8"},          // no -trace-out
		{"stray-arg"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunRejectsBadScale: a scale that is not a finite positive number
// fails at once with an error naming it, before any cell is simulated and
// before any report is printed.
func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"-1", "NaN", "+Inf"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-q", "-only", "fig1", "-scale", scale}, &out)
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("-scale %s: err = %v, want a scale error", scale, err)
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s printed a report:\n%s", scale, out.String())
		}
	}
}

func TestRunBadTraceCell(t *testing.T) {
	dir := t.TempDir()
	cases := []string{
		"mp3d",             // wrong arity
		"mp3d/NOSUCH/8",    // unknown strategy
		"mp3d/PREF/x",      // non-numeric transfer
		"nosuch/PREF/8",    // unknown workload
		"mp3d/PREF/999999", // transfer out of range
	}
	for _, cell := range cases {
		var out bytes.Buffer
		args := []string{"-q", "-only", "table1", "-scale", "0.02",
			"-trace-out", filepath.Join(dir, "t.json"), "-trace-cell", cell}
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("trace cell %q accepted, want error", cell)
		}
	}
}

// TestRunMetricsAndTraceOut runs a tiny suite slice with both observability
// outputs and checks each file parses in its documented format.
func TestRunMetricsAndTraceOut(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	traceFile := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	args := []string{"-q", "-only", "table1", "-scale", "0.02", "-seed", "7",
		"-metrics-out", metrics,
		"-trace-out", traceFile, "-trace-cell", "water/PREF/8"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}

	m, err := runner.ReadMetricsReport(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scale != 0.02 || m.Seed != 7 || len(m.Cells) == 0 {
		t.Errorf("metrics report header/cells wrong: scale %v seed %v cells %d", m.Scale, m.Seed, len(m.Cells))
	}
	for _, c := range m.Cells {
		if c.Summary == nil {
			t.Errorf("cell %s: nil summary", c.Cell)
		}
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}
