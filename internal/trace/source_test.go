package trace

import (
	"iter"
	"reflect"
	"runtime"
	"testing"
	"time"

	"busprefetch/internal/memory"
)

// countedSource is one processor streaming n events in chunks of size,
// event i at address 4i. produced counts the chunks it has yielded, and
// returned records that its sequence has returned. If panicAfter > 0, the
// producer panics with "boom" in place of its chunk panicAfter+1.
type countedSource struct {
	n, size, panicAfter int
	produced            int
	returned            bool
}

func (s *countedSource) Name() string { return "counted" }

func (s *countedSource) Procs() int { return 1 }

func (s *countedSource) Events(int) iter.Seq[[]Event] {
	return func(yield func([]Event) bool) {
		defer func() { s.returned = true }()
		buf := GetChunk()
		defer PutChunk(buf)
		for i := 0; i < s.n; i += s.size {
			if s.panicAfter > 0 && s.produced == s.panicAfter {
				panic("boom")
			}
			buf = buf[:0]
			for j := i; j < min(i+s.size, s.n); j++ {
				buf = append(buf, Event{Kind: Read, Addr: addrOf(j)})
			}
			s.produced++
			if !yield(buf) {
				return
			}
		}
	}
}

func addrOf(i int) memory.Addr { return memory.Addr(i * 4) }

// drainAll copies every chunk of it, in order, and closes it.
func drainAll(it Iterator) []Event {
	defer it.Close()
	var out []Event
	for chunk := it.Next(); chunk != nil; chunk = it.Next() {
		out = append(out, chunk...)
	}
	return out
}

func wantEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: Read, Addr: addrOf(i)}
	}
	return evs
}

// nextPanic calls it.Next and returns the value it panicked with, or nil.
func nextPanic(it Iterator) (v any) {
	defer func() { v = recover() }()
	it.Next()
	return nil
}

// TestReadAheadPanicReachesNext: the read-ahead goroutine recovers a
// panic of the producer and raises it again in the caller's Next, so the
// process survives and the caller's own recovery sees it.
func TestReadAheadPanicReachesNext(t *testing.T) {
	base := runtime.NumGoroutine()
	it := ReadAhead(&countedSource{n: 4 * chunkEvents, size: chunkEvents, panicAfter: 1}, 0)
	if chunk := it.Next(); len(chunk) != chunkEvents {
		t.Fatalf("first Next = %d events; want a full chunk", len(chunk))
	}
	if v := nextPanic(it); v != "boom" {
		t.Fatalf("Next after the producer panicked recovered %v, want boom", v)
	}
	it.Close()
	waitGoroutines(t, base)
}

// TestReadAheadMatchesSource: read ahead, a stream yields the same events
// in the same order.
func TestReadAheadMatchesSource(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents, 5*chunkEvents + 17} {
		got := drainAll(ReadAhead(&countedSource{n: n, size: chunkEvents}, 0))
		if len(got) != n || n > 0 && !reflect.DeepEqual(got, wantEvents(n)) {
			t.Errorf("%d events: read ahead, the stream yields %d events or a different sequence", n, len(got))
		}
	}
}

// TestReadAheadCloseStopsGoroutine: closing a read-ahead iterator before
// end of stream stops the stream's sequence within one chunk of the
// read-ahead, before Close returns, and stops the goroutine, also when
// Close is called again.
func TestReadAheadCloseStopsGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	src := &countedSource{n: 100 * chunkEvents, size: chunkEvents}
	it := ReadAhead(src, 0)
	if chunk := it.Next(); chunk == nil {
		t.Fatal("first Next ended the stream")
	}
	it.Close()
	if !src.returned {
		t.Fatal("Close returned before the stream's sequence did")
	}
	if src.produced > 2 {
		t.Errorf("producer yielded %d chunks for a caller that took 1; read-ahead is one chunk", src.produced)
	}
	it.Close()
	if chunk := it.Next(); chunk != nil {
		t.Errorf("Next after Close = %d events; want end of stream", len(chunk))
	}
	waitGoroutines(t, base)
}

// TestReadAheadHandsOverMaterializedStream: a materialized stream is one
// chunk already in memory, so read-ahead starts no goroutine and the
// chunk is the trace's own array, not a copy.
func TestReadAheadHandsOverMaterializedStream(t *testing.T) {
	tr := &Trace{Name: "m", Streams: []Stream{wantEvents(3 * chunkEvents)}}
	it := ReadAhead(FromTrace(tr), 0)
	defer it.Close()
	if _, ok := it.(*sliceIterator); !ok {
		t.Fatalf("ReadAhead wrapped a materialized stream in %T", it)
	}
	chunk := it.Next()
	if len(chunk) != len(tr.Streams[0]) || &chunk[0] != &tr.Streams[0][0] {
		t.Fatalf("first Next = %d events; want the trace's own stream", len(chunk))
	}
	if chunk := it.Next(); chunk != nil {
		t.Fatalf("second Next = %d events; want end of stream", len(chunk))
	}
}

// waitGoroutines polls until at most want goroutines are left, failing
// with every goroutine's stack if that takes longer than a few seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left, want at most %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
