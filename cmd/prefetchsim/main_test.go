package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"busprefetch/internal/check"
	"busprefetch/internal/trace"
)

func TestRunHappyPath(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "water", "-strategy", "PREF", "-scale", "0.05"}, &out)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	got := out.String()
	for _, want := range []string{"workload water", "strategy", "PREF", "bus util"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "nosuch"}, &out)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "nosuch") || !strings.Contains(msg, "mp3d") || !strings.Contains(msg, "water") {
		t.Errorf("error %q does not list the valid workloads", msg)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error is not one line: %q", msg)
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "water", "-strategy", "nosuch", "-scale", "0.05"}, &out)
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "nosuch") || !strings.Contains(msg, "PREF") || !strings.Contains(msg, "PWS") {
		t.Errorf("error %q does not list the valid strategies", msg)
	}
}

func TestRunBadFlagCombos(t *testing.T) {
	cases := [][]string{
		{"-trace", "x.bptr", "-workload", "mp3d"},
		{"-trace", "x.bptr", "-restructured"},
		{"-workload", "water", "-scale", "-1"},
		{"-workload", "water", "-transfer", "0", "-scale", "0.05"},
		{"-workload", "water", "-transfer", "999", "-scale", "0.05"},
		{"-workload", "water", "-all", "-trace-out", "t.json", "-scale", "0.05"},
		{"stray-arg"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "prefetchsim ") {
		t.Errorf("-version output %q does not name the binary", out.String())
	}
}

// TestRunTraceOut exercises the Perfetto export end to end: a small run with
// -trace-out must leave a file that parses as a Chrome trace-event JSON
// object with a non-empty traceEvents array.
func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "water", "-strategy", "PREF", "-scale", "0.05", "-trace-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if meta == 0 || complete == 0 {
		t.Errorf("trace has %d metadata and %d complete events, want both > 0", meta, complete)
	}

	// The same run without -trace-out prints identical results: recording
	// must not change what the simulator reports.
	var plain bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "water", "-strategy", "PREF", "-scale", "0.05"}, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.String() != out.String() {
		t.Errorf("recording changed the printed results:\n--- recorded ---\n%s\n--- plain ---\n%s", out.String(), plain.String())
	}
}

func TestRunCorruptTraceRejected(t *testing.T) {
	// Encode a tiny valid trace, flip one bit, and replay it: the CRC footer
	// must reject the file with an error, not a panic or a bogus simulation.
	tr := &trace.Trace{Name: "t", Streams: []trace.Stream{
		{{Kind: trace.Read, Addr: 0x1000}},
		{{Kind: trace.Read, Addr: 0x2000, Gap: 3}},
	}}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	corrupt, _ := check.NewInjector(3).FlipBit(buf.Bytes(), 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.bptr")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-trace", path}, &out)
	if err == nil {
		t.Fatal("corrupt trace accepted")
	}
	if !strings.Contains(err.Error(), "trace:") {
		t.Errorf("error %q does not come from the trace codec", err)
	}

	// The pristine file replays fine.
	good := filepath.Join(dir, "good.bptr")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"-trace", good}, &out); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

// TestRunInvalidTraceRejected replays a well-formed file whose trace breaks
// the lock rules behind a deadlock (p1 waits on the lock p0 holds across the
// barrier, so a replay never reaches p1's bad release). The replay must fail
// up front with the rule's diagnosis and print nothing, not stall.
func TestRunInvalidTraceRejected(t *testing.T) {
	tr := &trace.Trace{Name: "hidden", Streams: []trace.Stream{
		{{Kind: trace.Lock, Addr: 0x40}, {Kind: trace.Barrier, Addr: 1}, {Kind: trace.Unlock, Addr: 0x40}},
		{{Kind: trace.Lock, Addr: 0x40}, {Kind: trace.Unlock, Addr: 0x80}, {Kind: trace.Barrier, Addr: 1}},
	}}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hidden.bptr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-trace", path}, &out)
	if err == nil {
		t.Fatal("invalid trace accepted")
	}
	if !strings.Contains(err.Error(), "releases unheld lock 0x80") {
		t.Errorf("error %q does not name the broken lock rule", err)
	}
	if out.Len() != 0 {
		t.Errorf("invalid trace printed output before failing:\n%s", out.String())
	}
}

func TestRunInterconnectFlags(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "water", "-strategy", "PREF",
		"-scale", "0.05", "-interconnect", "multibus", "-buses", "4", "-discipline", "fcfs"}, &out)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "multibus:4/fcfs fabric") {
		t.Errorf("header does not name the fabric:\n%s", got)
	}

	// The default single bus must not grow a fabric note — the baseline
	// output is pinned by docs and habit.
	out.Reset()
	if err := run(context.Background(), []string{"-workload", "water", "-strategy", "NP", "-scale", "0.05"}, &out); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if strings.Contains(out.String(), "fabric") {
		t.Errorf("default run mentions a fabric:\n%s", out.String())
	}

	for _, args := range [][]string{
		{"-interconnect", "nosuch"},
		{"-discipline", "nosuch"},
		{"-interconnect", "bus", "-buses", "2"}, // a single bus is one link
	} {
		if err := run(context.Background(), append([]string{"-workload", "water", "-scale", "0.05"}, args...), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
