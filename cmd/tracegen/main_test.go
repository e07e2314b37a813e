package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunRenameFailureRemovesTemp: when the final rename fails (-o names
// an existing directory), run returns the error and the temporary trace
// file written beside the target is gone.
func TestRunRenameFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.bptr")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workload", "mp3d", "-scale", "0.02", "-o", out}, io.Discard); err == nil {
		t.Fatal("run wrote a trace over a directory without error")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}
