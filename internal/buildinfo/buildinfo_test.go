package buildinfo

import (
	"runtime/debug"
	"strings"
	"testing"
)

func TestStringNamesTheBinary(t *testing.T) {
	got := String("prefetchsim")
	if !strings.HasPrefix(got, "prefetchsim ") {
		t.Errorf("String() = %q, want prefix %q", got, "prefetchsim ")
	}
	if strings.Contains(got, "\n") {
		t.Errorf("version string is not one line: %q", got)
	}
}

func TestDescribeStampedBuild(t *testing.T) {
	info := &debug.BuildInfo{
		GoVersion: "go1.23.0",
		Main:      debug.Module{Version: "v1.2.3"},
		Settings: []debug.BuildSetting{
			{Key: "vcs.revision", Value: "0123456789abcdef0123"},
			{Key: "vcs.modified", Value: "true"},
		},
	}
	got := describe("mkfigures", info)
	want := "mkfigures v1.2.3 (go1.23.0, rev 0123456789ab+dirty)"
	if got != want {
		t.Errorf("describe() = %q, want %q", got, want)
	}
}

func TestDescribeBareBuild(t *testing.T) {
	got := describe("tracegen", &debug.BuildInfo{})
	if got != "tracegen (devel)" {
		t.Errorf("describe() = %q, want %q", got, "tracegen (devel)")
	}
}

// TestRevisionComputedOnce: Revision reads the build info once, so every
// call agrees with the first and allocates nothing.
func TestRevisionComputedOnce(t *testing.T) {
	first := Revision()
	if first == "" {
		t.Fatal("Revision() is empty, want a revision or \"unknown\"")
	}
	if again := Revision(); again != first {
		t.Errorf("Revision() = %q, then %q", first, again)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Revision() }); allocs != 0 {
		t.Errorf("Revision() allocates %v times per call after the first, want 0", allocs)
	}
}
