package trace

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"busprefetch/internal/memory"
)

// countedPipe returns a NewPipe over n events in chunks of size, with
// event i at address 4i. produced counts the chunks the producer has
// filled and flushed. If panicAfter > 0, the producer panics with "boom"
// in place of its chunk panicAfter+1.
func countedPipe(n, size, panicAfter int, produced *int) Iterator {
	return NewPipe(func(flush func([]Event) []Event) error {
		buf := flush(nil)
		for i := 0; i < n; i++ {
			if len(buf) == size {
				*produced++
				buf = flush(buf)
				if *produced == panicAfter {
					panic("boom")
				}
			}
			buf = append(buf, Event{Kind: Read, Addr: addrOf(i)})
		}
		if len(buf) > 0 {
			*produced++
		}
		flush(buf)
		return nil
	})
}

func addrOf(i int) memory.Addr { return memory.Addr(i * 4) }

// drainAll copies every chunk of it, in order, and closes it.
func drainAll(t *testing.T, it Iterator) []Event {
	t.Helper()
	defer it.Close()
	var out []Event
	for {
		chunk, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			return out
		}
		out = append(out, chunk...)
	}
}

func wantEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: Read, Addr: addrOf(i)}
	}
	return evs
}

// TestPipeRunsOnlyInNext: a pipe's producer is a coroutine of its
// consumer. It does not start before the first Next, it delivers exactly
// one chunk per Next, and the chunks arrive in order, each in the stage's
// one buffer.
func TestPipeRunsOnlyInNext(t *testing.T) {
	produced := 0
	it := countedPipe(3*chunkEvents+5, chunkEvents, 0, &produced)
	defer it.Close()
	if produced != 0 {
		t.Fatalf("producer filled %d chunks before the first Next", produced)
	}
	var got []Event
	var first *Event
	for k := 1; ; k++ {
		chunk, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		if produced != k {
			t.Fatalf("after %d calls to Next the producer has filled %d chunks", k, produced)
		}
		if first == nil {
			first = &chunk[0]
		} else if &chunk[0] != first {
			t.Errorf("chunk %d is in a new buffer; the stage must reuse its one buffer", k)
		}
		got = append(got, chunk...)
	}
	if !reflect.DeepEqual(got, wantEvents(3*chunkEvents+5)) {
		t.Error("drained events differ from the produced sequence")
	}
}

// TestPipeClosedUnreadNeverRuns: a pipe closed before its first Next
// never starts its producer and leaves no goroutine behind.
func TestPipeClosedUnreadNeverRuns(t *testing.T) {
	base := runtime.NumGoroutine()
	ran := false
	it := NewPipe(func(flush func([]Event) []Event) error {
		ran = true
		return nil
	})
	it.Close()
	it.Close()
	if ran {
		t.Error("closing an unread pipe ran its producer")
	}
	waitGoroutines(t, base)
}

// nextPanic calls it.Next and returns the value it panicked with, or nil.
func nextPanic(it Iterator) (v any) {
	defer func() { v = recover() }()
	it.Next()
	return nil
}

// TestPipePanicReachesNext: a producer that panics mid-stream panics the
// caller's Next with the same value, after the chunks flushed before it.
func TestPipePanicReachesNext(t *testing.T) {
	produced := 0
	it := countedPipe(4*chunkEvents, chunkEvents, 1, &produced)
	defer it.Close()
	if chunk, err := it.Next(); err != nil || len(chunk) != chunkEvents {
		t.Fatalf("first Next = %d events, %v; want a full chunk", len(chunk), err)
	}
	if v := nextPanic(it); v != "boom" {
		t.Fatalf("Next after the producer panicked recovered %v, want boom", v)
	}
}

// TestReadAheadPanicReachesNext: the read-ahead goroutine recovers a
// panic of the wrapped iterator and raises it again in the caller's Next,
// so the process survives and the caller's own recovery sees it.
func TestReadAheadPanicReachesNext(t *testing.T) {
	base := runtime.NumGoroutine()
	produced := 0
	it := ReadAhead(countedPipe(4*chunkEvents, chunkEvents, 1, &produced))
	if chunk, err := it.Next(); err != nil || len(chunk) != chunkEvents {
		t.Fatalf("first Next = %d events, %v; want a full chunk", len(chunk), err)
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
		produced := 0
		got := drainAll(t, ReadAhead(countedPipe(n, chunkEvents, 0, &produced)))
		if len(got) != n || n > 0 && !reflect.DeepEqual(got, wantEvents(n)) {
			t.Errorf("%d events: read ahead, the stream yields %d events or a different sequence", n, len(got))
		}
	}
}

// TestProducerErrorFollowsChunks: an error the producer returns reaches
// Next after every chunk flushed before it, and stays reported, whether
// the pipe is read directly or ahead.
func TestProducerErrorFollowsChunks(t *testing.T) {
	boom := errors.New("producer failed")
	for _, form := range []struct {
		name string
		wrap func(Iterator) Iterator
	}{
		{"pipe", func(it Iterator) Iterator { return it }},
		{"read ahead", ReadAhead},
	} {
		it := form.wrap(NewPipe(func(flush func([]Event) []Event) error {
			flush(append(flush(nil), Event{Kind: Write, Addr: 4}))
			return boom
		}))
		if chunk, err := it.Next(); err != nil || len(chunk) != 1 {
			t.Fatalf("%s: first Next = %v, %v; want the flushed chunk", form.name, chunk, err)
		}
		for i := 0; i < 2; i++ {
			if chunk, err := it.Next(); chunk != nil || !errors.Is(err, boom) {
				t.Fatalf("%s: Next after the producer failed = %v, %v; want nil, %v", form.name, chunk, err, boom)
			}
		}
		it.Close()
	}
}

// closeCounter counts Close calls on the iterator it wraps.
type closeCounter struct {
	Iterator
	closes int
}

func (c *closeCounter) Close() {
	c.closes++
	c.Iterator.Close()
}

// TestReadAheadCloseStopsGoroutine: closing a read-ahead iterator before
// end of stream closes the wrapped iterator exactly once, before Close
// returns, and stops the goroutine, also when Close is called again.
func TestReadAheadCloseStopsGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	produced := 0
	inner := &closeCounter{Iterator: countedPipe(100*chunkEvents, chunkEvents, 0, &produced)}
	it := ReadAhead(inner)
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if inner.closes != 1 {
		t.Fatalf("wrapped iterator closed %d times by Close, want 1", inner.closes)
	}
	if produced > 2 {
		t.Errorf("producer filled %d chunks for a caller that took 1; read-ahead is one chunk", produced)
	}
	it.Close()
	if chunk, err := it.Next(); chunk != nil || err != nil {
		t.Errorf("Next after Close = %d events, %v; want end of stream", len(chunk), err)
	}
	if inner.closes != 1 {
		t.Errorf("wrapped iterator closed %d times after a second Close, want 1", inner.closes)
	}
	waitGoroutines(t, base)
}

// TestReadAheadHandsOverMaterializedStream: a materialized stream is one
// chunk already in memory, so read-ahead returns its iterator unchanged
// and the chunk is the trace's own array, not a copy.
func TestReadAheadHandsOverMaterializedStream(t *testing.T) {
	tr := &Trace{Name: "m", Streams: []Stream{wantEvents(3 * chunkEvents)}}
	inner := FromTrace(tr).Events(0)
	it := ReadAhead(inner)
	defer it.Close()
	if it != inner {
		t.Fatalf("ReadAhead wrapped a materialized stream in %T", it)
	}
	chunk, err := it.Next()
	if err != nil || len(chunk) != len(tr.Streams[0]) || &chunk[0] != &tr.Streams[0][0] {
		t.Fatalf("first Next = %d events, %v; want the trace's own stream", len(chunk), err)
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
