package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strconv"
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

// TestRunMetricsOut runs a tiny suite slice with -metrics-out and checks
// the file parses in its documented format, labelled with the effective
// seed: the seed asked for, except that -seed 0 selects seed 1, as it does
// for the cells.
func TestRunMetricsOut(t *testing.T) {
	for _, tc := range []struct{ seed, want int64 }{{7, 7}, {0, 1}} {
		metrics := filepath.Join(t.TempDir(), "metrics.json")
		var out bytes.Buffer
		args := []string{"-q", "-only", "table1", "-scale", "0.02",
			"-seed", strconv.FormatInt(tc.seed, 10), "-metrics-out", metrics}
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatal(err)
		}
		m, err := runner.ReadMetricsReport(metrics)
		if err != nil {
			t.Fatal(err)
		}
		if m.Scale != 0.02 || m.Seed != tc.want || len(m.Cells) == 0 {
			t.Errorf("-seed %d: metrics report header/cells wrong: scale %v seed %v (want %d) cells %d",
				tc.seed, m.Scale, m.Seed, tc.want, len(m.Cells))
		}
		for _, c := range m.Cells {
			if c.Summary == nil {
				t.Errorf("-seed %d: cell %s: nil summary", tc.seed, c.Cell)
			}
		}
	}
}
