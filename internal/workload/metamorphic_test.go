package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"busprefetch/internal/trace"
)

// The metamorphic suite pins the equivalences of the streaming seam: for
// every workload kernel, two independently planned sources, the trace
// materialized from one of them, and a BPTR encode/decode round trip are
// four views of one event sequence. Any divergence — a kernel whose emit
// depends on state outside its plan, a codec that drops a field, a stage
// that reorders chunks — fails here before it can silently skew a
// simulation.

// drainSource collects every event of one source processor.
func drainSource(src trace.Source, proc int) trace.Stream {
	var out trace.Stream
	for chunk := range src.Events(proc) {
		out = append(out, chunk...)
	}
	return out
}

// diffStreams reports the first divergence between two event sequences.
func diffStreams(t *testing.T, label string, proc int, got, want trace.Stream) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: proc %d: %d events, want %d", label, proc, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: proc %d event %d: %+v, want %+v", label, proc, i, got[i], want[i])
			return
		}
	}
}

func TestStreamedMaterializedRoundTripAgree(t *testing.T) {
	scales := []float64{0.02, 0.1}
	seeds := []int64{1, 42}
	for _, w := range All() {
		for _, scale := range scales {
			for _, seed := range seeds {
				w, scale, seed := w, scale, seed
				t.Run(fmt.Sprintf("%s/scale%v/seed%d", w.Name, scale, seed), func(t *testing.T) {
					t.Parallel()
					p := Params{Scale: scale, Seed: seed}

					tr, info, err := generate(w, p)
					if err != nil {
						t.Fatal(err)
					}
					src, sinfo, err := w.Source(p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(info, sinfo) {
						t.Errorf("second plan's info %+v != first plan's info %+v", sinfo, info)
					}
					if src.Name() != tr.Name || src.Procs() != tr.Procs() {
						t.Fatalf("source header (%q, %d) != trace header (%q, %d)",
							src.Name(), src.Procs(), tr.Name, tr.Procs())
					}

					var buf bytes.Buffer
					if err := trace.Encode(&buf, tr); err != nil {
						t.Fatal(err)
					}
					decoded, err := trace.DecodeSource(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatal(err)
					}

					for proc := 0; proc < tr.Procs(); proc++ {
						diffStreams(t, "streamed vs materialized", proc,
							drainSource(src, proc), tr.Streams[proc])
						diffStreams(t, "round trip vs materialized", proc,
							drainSource(decoded, proc), tr.Streams[proc])
					}
				})
			}
		}
	}
}

// TestSourceRestartable pins the Source contract the trace cache depends
// on: a second Events call for the same processor replays the identical
// sequence, including when the first range over it stopped mid-stream.
func TestSourceRestartable(t *testing.T) {
	w, err := ByName("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := w.Source(Params{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Abandon a range after one chunk; the generator must stop cleanly.
	for range src.Events(0) {
		break
	}

	first := drainSource(src, 0)
	second := drainSource(src, 0)
	diffStreams(t, "restarted source", 0, second, first)
}
