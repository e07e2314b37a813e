package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"busprefetch/internal/check"
	"busprefetch/internal/runner"
)

func resumeConfig(store *runner.CheckpointStore) Config {
	return Config{Scale: 0.1, Seed: 1, Transfers: []int{8}, Checkpoints: store}
}

func wantTable2Only(name string) bool { return name == "table2" }

// TestResumeEquivalence is the checkpoint/resume contract end to end: kill a
// sweep partway, resume it in a fresh suite (the way a new process would),
// and the resumed sweep must restore every completed cell from the store,
// recompute only the missing ones, and render byte-identical output to an
// uninterrupted sweep.
func TestResumeEquivalence(t *testing.T) {
	ctx := context.Background()

	clean := NewSuite(resumeConfig(nil))
	keys := clean.GridKeys()
	if err := clean.Prewarm(ctx, keys, nil); err != nil {
		t.Fatalf("uninterrupted sweep failed: %v", err)
	}
	golden, err := clean.RenderSections(ctx, wantTable2Only)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store1, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite(resumeConfig(store1))
	const killAfter = 5
	kctx, cancel := context.WithCancel(ctx)
	defer cancel()
	kerr := s1.Prewarm(kctx, keys, func(done, total int) {
		if done >= killAfter {
			cancel()
		}
	})
	if !errors.Is(kerr, context.Canceled) {
		t.Fatalf("killed sweep returned %v, want context.Canceled", kerr)
	}
	if puts := store1.Stats().Puts; puts == 0 {
		t.Fatal("killed sweep checkpointed nothing")
	}

	store2, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite(resumeConfig(store2))
	if err := s2.Prewarm(ctx, keys, nil); err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	// Read the counters before rendering: Table2 sweeps its own fixed
	// transfer set, so the render below legitimately computes (and
	// checkpoints) cells beyond the prewarmed grid.
	stats := store2.Stats()
	if stats.Hits < killAfter {
		t.Errorf("resume restored %d cells, want at least the %d that completed before the kill", stats.Hits, killAfter)
	}
	if got, want := stats.Puts, uint64(len(keys))-stats.Hits; got != want {
		t.Errorf("resume recomputed %d cells with %d restored of %d; want exactly the missing %d",
			got, stats.Hits, len(keys), want)
	}
	out, err := s2.RenderSections(ctx, wantTable2Only)
	if err != nil {
		t.Fatal(err)
	}
	if out != golden {
		t.Errorf("resumed render diverges from the uninterrupted sweep (%d vs %d bytes)", len(out), len(golden))
	}
	if corrupt, err := store2.Verify(); err != nil || len(corrupt) > 0 {
		t.Errorf("store after resume: corrupt=%v err=%v", corrupt, err)
	}
}

// TestResumeTornWriteSelfHeals: a checkpoint entry corrupted on disk between
// runs (torn write, bit rot) must be quarantined and recomputed — never
// served — and the healed sweep still renders byte-identical output.
func TestResumeTornWriteSelfHeals(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store1, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite(resumeConfig(store1))
	keys := s1.GridKeys()
	if err := s1.Prewarm(ctx, keys, nil); err != nil {
		t.Fatal(err)
	}
	if puts := store1.Stats().Puts; puts != uint64(len(keys)) {
		t.Fatalf("sweep checkpointed %d of %d cells", puts, len(keys))
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			victim = filepath.Join(dir, e.Name())
			break
		}
	}
	if victim == "" {
		t.Fatal("completed sweep left no checkpoint entries")
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	torn, _ := check.NewInjector(1).FlipBit(data, -1)
	if err := os.WriteFile(victim, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite(resumeConfig(store2))
	if err := s2.Prewarm(ctx, keys, nil); err != nil {
		t.Fatalf("sweep over a torn store failed: %v", err)
	}
	stats := store2.Stats()
	if stats.Corrupt != 1 {
		t.Errorf("corrupt entries detected = %d, want 1", stats.Corrupt)
	}
	if stats.Hits != uint64(len(keys))-1 || stats.Puts != 1 {
		t.Errorf("hits=%d puts=%d over %d keys; want %d restored and exactly the torn cell recomputed",
			stats.Hits, stats.Puts, len(keys), len(keys)-1)
	}

	clean := NewSuite(resumeConfig(nil))
	golden, err := clean.RenderSections(ctx, wantTable2Only)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s2.RenderSections(ctx, wantTable2Only)
	if err != nil {
		t.Fatal(err)
	}
	if out != golden {
		t.Error("healed render diverges from a fault-free one")
	}
	if corrupt, err := store2.Verify(); err != nil || len(corrupt) > 0 {
		t.Errorf("store after self-heal: corrupt=%v err=%v", corrupt, err)
	}
}

// checkSweepResume renders a sweep section twice over one checkpoint
// directory, each time in a fresh suite (the way a new process would): the
// first render must checkpoint each distinct cell of keys once, and the
// second must restore every one of them, recompute none, and render
// byte-identical output. Sweep cells take the same checkpoint path as the
// grid's.
func checkSweepResume(t *testing.T, keys func(*Suite) []Key, render func(*Suite, context.Context) (string, error)) {
	t.Helper()
	distinct := map[Key]bool{}
	for _, k := range keys(NewSuite(resumeConfig(nil))) {
		distinct[k.canonical()] = true
	}
	n := uint64(len(distinct))
	dir := t.TempDir()
	var out [2]string
	for run, want := range [2]runner.CheckpointStats{{Puts: n}, {Hits: n}} {
		store, err := runner.OpenCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if out[run], err = render(NewSuite(resumeConfig(store)), context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := store.Stats(); got.Hits != want.Hits || got.Puts != want.Puts {
			t.Fatalf("run %d: hits=%d puts=%d, want hits=%d puts=%d", run+1, got.Hits, got.Puts, want.Hits, want.Puts)
		}
	}
	if out[1] != out[0] {
		t.Errorf("restored cells render differently:\n--- first ---\n%s\n--- restored ---\n%s", out[0], out[1])
	}
}

// TestAblationCheckpointResume: the ablation sweeps share some cells
// (every default-geometry mp3d/NP row is one cell), and each distinct cell
// is checkpointed once.
func TestAblationCheckpointResume(t *testing.T) {
	checkSweepResume(t, func(*Suite) []Key {
		var keys []Key
		for _, sw := range reportSweeps {
			keys = append(keys, sw.keys...)
		}
		return keys
	}, func(s *Suite, ctx context.Context) (string, error) { return s.RenderSections(ctx, only("ablations")) })
}

// TestObservabilityCheckpointResume: the recorded observability cells
// resume with their summaries.
func TestObservabilityCheckpointResume(t *testing.T) {
	mp3d := []string{"mp3d"}
	checkSweepResume(t, func(s *Suite) []Key { return s.obsKeys(mp3d) },
		func(s *Suite, ctx context.Context) (string, error) { return s.observability(ctx, mp3d) })
}

// TestOnlineCheckpointResume: the online sweep checkpoints its own cells
// plus the NP grid baseline, and restores them with their engine stats.
func TestOnlineCheckpointResume(t *testing.T) {
	mp3d, t8 := []string{"mp3d"}, []int{8}
	checkSweepResume(t, func(s *Suite) []Key { return s.onlineKeys(mp3d, t8) },
		func(s *Suite, ctx context.Context) (string, error) { return s.online(ctx, mp3d, t8) })
}

// TestInterconnectCheckpointResume: the ladder's NP baselines are
// in-sweep, so it checkpoints exactly its own cells, per-link stats
// included.
func TestInterconnectCheckpointResume(t *testing.T) {
	t8 := []int{8}
	checkSweepResume(t, func(s *Suite) []Key { return s.interconnectKeys(t8) },
		func(s *Suite, ctx context.Context) (string, error) { return s.interconnect(ctx, t8) })
}
