package sim

import (
	"errors"
	"iter"
	"reflect"
	"strings"
	"testing"

	"busprefetch/internal/check"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// streamTestCell runs one workload/strategy cell twice — streamed from
// the producer's chunks, and replayed from the same events
// materialized into one chunk per processor — and requires identical
// Results: chunking must never affect a simulation.
func streamTestCell(t *testing.T, w *workload.Workload, wp workload.Params, opt prefetch.Options) {
	t.Helper()
	cfg := DefaultConfig()

	src, _, err := w.Source(wp)
	if err != nil {
		t.Fatal(err)
	}
	annSrc, err := prefetch.AnnotateSource(src, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSource(cfg, annSrc)
	if err != nil {
		t.Fatal(err)
	}

	ann, err := trace.Materialize(annSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSource(cfg, trace.FromTrace(ann))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunked result differs from single-chunk result:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunSourceMatchesRun(t *testing.T) {
	for _, w := range workload.All() {
		for _, strat := range []prefetch.Strategy{prefetch.NP, prefetch.PREF, prefetch.PWS} {
			w, strat := w, strat
			t.Run(w.Name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()
				streamTestCell(t, w, workload.Params{Scale: 0.05, Seed: 7},
					prefetch.Options{Strategy: strat, Geometry: memory.DefaultGeometry()})
			})
		}
	}
}

// kindSource yields a hand-built per-proc event sequence, one chunk per
// processor, through a read-ahead goroutine; it exercises the replay's
// inline validation.
type kindSource struct {
	streams []trace.Stream
}

func (s *kindSource) Name() string { return "hand" }

func (s *kindSource) Procs() int { return len(s.streams) }

func (s *kindSource) Events(proc int) iter.Seq[[]trace.Event] {
	return func(yield func([]trace.Event) bool) {
		if st := s.streams[proc]; len(st) > 0 {
			yield(st)
		}
	}
}

func TestRunSourceInlineValidation(t *testing.T) {
	read := trace.Event{Kind: trace.Read, Addr: 0x1000}
	cases := []struct {
		name    string
		streams []trace.Stream
		want    string
	}{
		{
			name:    "unknown kind",
			streams: []trace.Stream{{read, {Kind: trace.Kind(250), Addr: 0x2000}}, {read}},
			want:    "unknown kind",
		},
		{
			name: "re-acquire held lock",
			streams: []trace.Stream{
				{{Kind: trace.Lock, Addr: 0x9000}, {Kind: trace.Lock, Addr: 0x9000}},
				{read},
			},
			want: "re-acquires held lock",
		},
		{
			name:    "release unheld lock",
			streams: []trace.Stream{{{Kind: trace.Unlock, Addr: 0x9000}}, {read}},
			want:    "releases unheld lock",
		},
		{
			name: "ends holding a lock",
			streams: []trace.Stream{
				{{Kind: trace.Lock, Addr: 0x9000}, read},
				{read},
			},
			want: "ends holding",
		},
		{
			name: "barrier value mismatch",
			streams: []trace.Stream{
				{{Kind: trace.Barrier, Addr: 0}},
				{{Kind: trace.Barrier, Addr: 1}},
			},
			want: "barrier",
		},
		{
			name: "missing barrier",
			streams: []trace.Stream{
				{read, {Kind: trace.Barrier, Addr: 1}, read},
				{read},
			},
			want: "barrier",
		},
		{
			// The barrier arrives first and waits; the peer then ends
			// having passed fewer barriers than were logged.
			name: "stream ends short of a logged barrier",
			streams: []trace.Stream{
				{{Kind: trace.Barrier, Addr: 1}, read},
				{{Kind: trace.Read, Addr: 0x1000, Gap: 500}},
			},
			want: "ends after 0 barriers",
		},
		{
			// The peer ends first; the barrier arrives after it.
			name: "barrier after a peer ended",
			streams: []trace.Stream{
				{{Kind: trace.Read, Addr: 0x1000, Gap: 500}, {Kind: trace.Barrier, Addr: 1}, read},
				{read},
			},
			want: "reaches barrier 0",
		},
		{
			name: "one extra barrier",
			streams: []trace.Stream{
				{{Kind: trace.Barrier, Addr: 1}, {Kind: trace.Barrier, Addr: 2}},
				{{Kind: trace.Barrier, Addr: 1}},
			},
			want: "barrier",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunSource(DefaultConfig(), &kindSource{streams: tc.streams})
			if err == nil {
				t.Fatalf("invalid stream simulated without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want it to mention %q", err, tc.want)
			}
			var stall *check.StallError
			if errors.As(err, &stall) {
				t.Errorf("error is a stall (%v), want a validation error", err)
			}
			if runner.Classify(err) != runner.Terminal {
				t.Errorf("error %v classifies as retryable, want terminal", err)
			}
		})
	}
}

func TestRunSourceRejectsBadProcs(t *testing.T) {
	if _, err := RunSource(DefaultConfig(), &kindSource{}); err == nil {
		t.Error("zero-proc source accepted")
	}
	many := &kindSource{streams: make([]trace.Stream, 65)}
	if _, err := RunSource(DefaultConfig(), many); err == nil {
		t.Error("65-proc source accepted")
	}
}
