package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
)

// generate materializes a workload's trace.
func generate(w *Workload, p Params) (*trace.Trace, Info, error) {
	src, info, err := w.Source(p)
	if err != nil {
		return nil, Info{}, err
	}
	tr, err := trace.Materialize(src)
	return tr, info, err
}

func TestAllWorkloadsListed(t *testing.T) {
	names := []string{}
	for _, w := range All() {
		names = append(names, w.Name)
	}
	want := []string{"topopt", "mp3d", "locus", "pverify", "water"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("All() = %v, want %v", names, want)
	}
}

func TestByName(t *testing.T) {
	// Names fold as strings.EqualFold folds them: "ſ" (U+017F) is an "s".
	for in, want := range map[string]string{"MP3D": "mp3d", "Water": "water", "locuſ": "locus"} {
		if w, err := ByName(in); err != nil || w.Name != want {
			t.Errorf("ByName(%q) = %v, %v; want %s", in, w, err, want)
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, w := range All() {
		if !strings.Contains(err.Error(), w.Name) {
			t.Errorf("ByName(nope) error %q does not list valid name %q", err, w.Name)
		}
	}
}

func TestGeneratedTracesValidate(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr, info, err := generate(w, Params{Scale: 0.05, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if tr.Procs() != w.DefaultProcs {
				t.Errorf("procs = %d, want %d", tr.Procs(), w.DefaultProcs)
			}
			if info.DataSet <= 0 || info.SharedData <= 0 {
				t.Errorf("info missing sizes: %+v", info)
			}
			if tr.DemandRefs() == 0 {
				t.Error("no demand references")
			}
		})
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, w := range All() {
		a, _, err := generate(w, Params{Scale: 0.03, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := generate(w, Params{Scale: 0.03, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", w.Name)
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	w := Mp3d()
	a, _, err := generate(w, Params{Scale: 0.03, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := generate(w, Params{Scale: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical traces")
	}
}

func TestScaleControlsLength(t *testing.T) {
	w := Water()
	small, _, err := generate(w, Params{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := generate(w, Params{Scale: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Lengths are quantized to whole steps, so demand a loose factor.
	if big.DemandRefs() < 3*small.DemandRefs() {
		t.Errorf("scale 1.0 trace (%d refs) not much larger than scale 0.1 (%d refs)",
			big.DemandRefs(), small.DemandRefs())
	}
}

func TestParamsValidation(t *testing.T) {
	w := Water()
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, _, err := w.Source(Params{Scale: scale}); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	if _, _, err := generate(w, Params{Procs: 1, Scale: 0.1}); err == nil {
		t.Error("single processor accepted (needs >= 2 for sharing)")
	}
	if _, _, err := generate(w, Params{Procs: 100, Scale: 0.1}); err == nil {
		t.Error("100 processors accepted (limit is 64)")
	}
}

func TestProcsOverride(t *testing.T) {
	w := Mp3d()
	tr, info, err := generate(w, Params{Procs: 6, Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Procs() != 6 || info.Procs != 6 {
		t.Errorf("procs = %d/%d, want 6", tr.Procs(), info.Procs)
	}
}

func TestWorkloadsExhibitWriteSharing(t *testing.T) {
	g := memory.DefaultGeometry()
	for _, w := range All() {
		tr, _, err := generate(w, Params{Scale: 0.05, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		prof, err := trace.AnalyzeSharingSource(trace.FromTrace(tr), g)
		if err != nil {
			t.Fatal(err)
		}
		_, _, ws := prof.Counts()
		if ws == 0 {
			t.Errorf("%s: no write-shared lines — the paper's whole topic", w.Name)
		}
	}
}

// TestRestructuredLayoutsReduceLineSharing verifies the §4.4 transformation
// at the trace level: the restructured variants of Topopt and Pverify have
// far fewer write-shared lines whose writers differ from their readers.
func TestRestructuredChangesLayoutOnly(t *testing.T) {
	for _, name := range []string{"topopt", "pverify"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		orig, _, err := generate(w, Params{Scale: 0.05, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		restr, _, err := generate(w, Params{Scale: 0.05, Seed: 1, Restructured: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := restr.Validate(); err != nil {
			t.Fatal(err)
		}
		// The computation is unchanged: same reference counts per processor.
		if orig.DemandRefs() != restr.DemandRefs() {
			t.Errorf("%s: restructuring changed the demand reference count (%d vs %d)",
				name, orig.DemandRefs(), restr.DemandRefs())
		}
	}
}

func TestTable1Characteristics(t *testing.T) {
	// The calibrated workload characteristics the rest of the suite relies
	// on: shared data sizes and per-workload process counts.
	expected := map[string]int{"topopt": 10, "mp3d": 12, "locus": 10, "pverify": 16, "water": 10}
	for _, w := range All() {
		if expected[w.Name] != w.DefaultProcs {
			t.Errorf("%s: DefaultProcs = %d, want %d", w.Name, w.DefaultProcs, expected[w.Name])
		}
	}
}

func TestBuilderGapAccumulation(t *testing.T) {
	var got trace.Stream
	b := &builder{events: make([]trace.Event, 0, 1), yield: func(chunk []trace.Event) bool {
		got = append(got, chunk...)
		return true
	}}
	b.Instr(3)
	b.Instr(2)
	b.Read(0x100)
	b.Write(0x104)
	b.finish()
	if len(got) != 2 {
		t.Fatalf("events = %d", len(got))
	}
	if got[0].Gap != 5 {
		t.Errorf("gap = %d, want 5", got[0].Gap)
	}
	if got[1].Gap != 0 {
		t.Errorf("second gap = %d, want 0", got[1].Gap)
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a := newRNG(1, 2)
	b := newRNG(1, 2)
	for i := 0; i < 100; i++ {
		x, y := a.Intn(1000), b.Intn(1000)
		if x != y {
			t.Fatal("rng not deterministic")
		}
		if x < 0 || x >= 1000 {
			t.Fatalf("Intn out of range: %d", x)
		}
	}
	c := newRNG(1, 3)
	same := true
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Error("different streams produced identical sequences")
	}
}
