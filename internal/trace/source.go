package trace

import (
	"iter"
	"sync"
)

// Source is a push-based stream of trace events, one sequence per
// processor. It is the only input the sharing analysis, the prefetch
// annotator and the simulator accept: events flow from the producer to
// the consumer one chunk at a time, with no materialized trace in
// between. Every stage is a plain loop on the goroutine that ranges over
// it: the generators and the decoder yield chunks, and the annotator
// ranges over its input and yields its own, so a whole-stream drain runs
// no goroutine beside it. The simulator alone drains through ReadAhead,
// which overlaps production with simulation. FromTrace and Materialize
// are the only bridges to and from a whole in-memory Trace.
//
// A Source must be restartable: Events may be called any number of
// times for the same processor, and each sequence it returns starts at
// the beginning of that processor's stream. Sequences for different
// processors may be ranged over concurrently.
type Source interface {
	// Name identifies the workload that produces the events.
	Name() string
	// Procs returns the number of processor streams.
	Procs() int
	// Events returns processor proc's stream as a sequence of chunks.
	// A chunk is valid only during the loop body's call: the producer
	// refills the same buffer once the body returns, so a consumer that
	// keeps events must copy them. When the body stops the loop, the
	// producer takes no more input and the sequence returns within one
	// chunk. A panic in a producer reaches the caller of the range
	// statement with its value.
	Events(proc int) iter.Seq[[]Event]
}

// Iterator is the pull form of one processor's stream that ReadAhead
// returns. Next returns the next chunk, valid until the next call to
// Next or Close, and nil at end of stream; it panics if the producer
// panicked. Close ends the stream and releases its resources; it is safe
// to call more than once, and must be called when abandoning an iterator
// before end of stream. One goroutine at a time may use an Iterator.
type Iterator interface {
	Next() []Event
	Close()
}

// chunkEvents is the number of events in a stage's buffer: 4096 events
// ≈ 64 KiB, large enough to amortize per-chunk overheads (a loop-body
// call, a read-ahead handoff) to fractions of a nanosecond per event,
// small enough to stay cache-resident.
const chunkEvents = 4096

// chunkPool recycles event buffers across stages and cells. A stage
// takes one buffer for its whole stream and returns it at the end, so a
// GC that empties the pool costs one allocation per stage, not one per
// chunk.
var chunkPool = sync.Pool{
	New: func() any { return make([]Event, 0, chunkEvents) },
}

// GetChunk returns an empty 4096-event buffer from the chunk pool: a
// producing stage's one output buffer for its stream.
func GetChunk() []Event { return chunkPool.Get().([]Event)[:0] }

// PutChunk returns a buffer from GetChunk to the pool; a buffer of any
// other capacity is left to the garbage collector.
func PutChunk(c []Event) {
	if cap(c) == chunkEvents {
		chunkPool.Put(c[:0])
	}
}

// readAhead is the Iterator ReadAhead returns. Its goroutine fills two
// buffers in turn and hands each over on an unbuffered channel, so a
// completed send means the caller has called Next again and is done
// with the other buffer.
type readAhead struct {
	ch     chan []Event
	stop   chan struct{} // closed by Close
	done   chan struct{} // closed when the goroutine's sequence has returned
	cur    []Event       // the chunk the caller holds
	fault  any           // the producer's panic, set before done closes
	closed bool
}

// ReadAhead returns an Iterator over processor proc's stream of src whose
// producer runs one chunk ahead of the caller, on a goroutine of its own:
// while the caller works on one chunk, the goroutine ranges over the
// stream's sequence for the next and copies it into a buffer it owns. A
// panic in the producer is raised again in the caller's Next, and Close
// returns only once the sequence has returned and the goroutine exited;
// the goroutine stops the sequence at its next chunk.
//
// A materialized stream (FromTrace) is one chunk already in memory, so
// it is handed over in place: nothing is copied and no goroutine starts.
func ReadAhead(src Source, proc int) Iterator {
	if s, ok := src.(sliceSource); ok {
		return &sliceIterator{s: s.t.Streams[proc]}
	}
	r := &readAhead{ch: make(chan []Event), stop: make(chan struct{}), done: make(chan struct{})}
	go r.run(src.Events(proc))
	return r
}

func (r *readAhead) run(events iter.Seq[[]Event]) {
	var bufs [2][]Event
	i := 0 // bufs[i] is the goroutine's; the caller may hold the other
	defer close(r.done)
	defer func() {
		r.fault = recover()
		PutChunk(bufs[i])
	}()
	for chunk := range events {
		if bufs[i] == nil {
			bufs[i] = GetChunk()
		}
		bufs[i] = append(bufs[i][:0], chunk...)
		select {
		case r.ch <- bufs[i]:
		case <-r.stop:
			return
		}
		i ^= 1
	}
}

func (r *readAhead) Next() []Event {
	select {
	case r.cur = <-r.ch:
		return r.cur
	case <-r.done:
	}
	r.release()
	if r.fault != nil {
		panic(r.fault)
	}
	return nil
}

func (r *readAhead) Close() {
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	<-r.done
	r.release()
}

// release returns the caller's last buffer to the pool once the
// goroutine has exited.
func (r *readAhead) release() {
	PutChunk(r.cur)
	r.cur = nil
}

// sliceSource adapts a materialized Trace to the Source interface. Each
// processor's sequence yields its whole stream as a single chunk; the
// chunk aliases the trace, so the usual validity contract applies.
type sliceSource struct{ t *Trace }

// FromTrace returns a Source backed by a materialized trace: the one
// adapter from trace data (a decoded file, a hand-built or mutated test
// trace) into the pipeline. The source aliases t; the caller must not
// mutate t while a sequence of it runs.
func FromTrace(t *Trace) Source { return sliceSource{t} }

func (s sliceSource) Name() string { return s.t.Name }

func (s sliceSource) Procs() int { return s.t.Procs() }

func (s sliceSource) Events(proc int) iter.Seq[[]Event] {
	return func(yield func([]Event) bool) {
		if st := s.t.Streams[proc]; len(st) > 0 {
			yield(st)
		}
	}
}

// sliceIterator is ReadAhead's Iterator over a materialized stream.
type sliceIterator struct {
	s    Stream
	done bool
}

func (it *sliceIterator) Next() []Event {
	if it.done || len(it.s) == 0 {
		return nil
	}
	it.done = true
	return it.s
}

func (it *sliceIterator) Close() { it.done = true }

// Materialize drains every processor stream of src into a Trace: the
// one way out of the pipeline, for callers that need the whole trace
// at once (persistence via Encode, tests). The error is always nil.
func Materialize(src Source) (*Trace, error) {
	t := &Trace{Name: src.Name(), Streams: make([]Stream, src.Procs())}
	for p := range t.Streams {
		for chunk := range src.Events(p) {
			t.Streams[p] = append(t.Streams[p], chunk...)
		}
	}
	return t, nil
}

// CountEvents drains src and returns the total event and demand-
// reference counts across all processors, without materializing
// anything. The error is always nil.
func CountEvents(src Source) (events, demand int, err error) {
	for p := 0; p < src.Procs(); p++ {
		for chunk := range src.Events(p) {
			events += len(chunk)
			for _, e := range chunk {
				if e.Kind.IsDemand() {
					demand++
				}
			}
		}
	}
	return events, demand, nil
}
