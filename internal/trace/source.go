package trace

import (
	"fmt"
	"sync"
)

// Source is a pull-based stream of trace events, one iterator per
// processor. It is the only input the sharing analysis, the prefetch
// annotator and the simulator accept: events flow from the producer to
// the consumer one chunk at a time, with no materialized trace in
// between. The generators and the annotator run as coroutines of the
// goroutine that drains them (see NewPipe), so a whole-stream drain
// runs no goroutine beside it; the simulator alone drains through
// ReadAhead, which overlaps production with simulation.
// FromTrace and Materialize are the only bridges to and from a whole
// in-memory Trace.
//
// A Source must be restartable: Events may be called any number of
// times for the same processor, and each call returns a fresh iterator
// positioned at the beginning of that processor's stream. Iterators
// for different processors may be drained concurrently.
type Source interface {
	// Name identifies the workload that produces the events.
	Name() string
	// Procs returns the number of processor streams.
	Procs() int
	// Events returns a fresh iterator over processor proc's stream.
	Events(proc int) Iterator
}

// Iterator yields one processor's events in chunks. The returned chunk
// is only valid until the next call to Next or Close — consumers must
// finish with (or copy) a chunk before asking for the next one, which
// lets a producer refill the same buffer. Next returns a nil chunk at
// end of stream, with a non-nil error if the stream failed (for example
// a corrupt encoded trace), and panics if the producer panicked. Close
// releases the iterator's resources and ends its producer; it is safe
// to call more than once, and must be called when abandoning an
// iterator before end of stream. One goroutine at a time may use an
// Iterator.
type Iterator interface {
	Next() ([]Event, error)
	Close()
}

// chunkEvents is the number of events in a stage's buffer: 4096 events
// ≈ 64 KiB, large enough to amortize per-chunk overheads (a coroutine
// switch, a read-ahead handoff) to fractions of a nanosecond per event,
// small enough to stay cache-resident.
const chunkEvents = 4096

// chunkPool recycles event buffers across iterators and cells. A stage
// takes one buffer for its whole stream and returns it at the end, so a
// GC that empties the pool costs one allocation per stage, not one per
// chunk.
var chunkPool = sync.Pool{
	New: func() any { return make([]Event, 0, chunkEvents) },
}

func grabChunk() []Event { return chunkPool.Get().([]Event)[:0] }

func putChunk(c []Event) {
	if cap(c) == chunkEvents {
		chunkPool.Put(c[:0])
	}
}

// pipeStop unwinds a producer when its consumer closes the iterator
// early.
type pipeStop struct{}

// pipe is an Iterator whose producer runs as a coroutine of its
// consumer: on a goroutine of its own, but only between the consumer's
// Next and the producer's next flush, handing control back and forth
// over two unbuffered channels, so the two never run at once.
type pipe struct {
	produce func(flush func([]Event) []Event) error
	out     chan []Event // producer to consumer: a chunk; closed when produce has returned
	resume  chan bool    // consumer to producer: true for the next chunk, false to stop
	buf     []Event      // the stage's one buffer; nil until the first flush
	err     error        // produce's result, set before out closes
	fault   any          // produce's panic, set before out closes
	started bool
	done    bool
}

// NewPipe returns an Iterator whose events are produced by produce, run
// as a coroutine of whichever goroutine calls Next: the first Next starts
// it, and each later Next resumes it until its next flush. produce fills
// a buffer and hands it downstream via flush, which delivers buf (if
// non-empty) and returns the stage's one buffer, empty, to keep filling;
// produce must flush its final partial chunk before returning. flush
// suspends produce until the consumer asks for the next chunk, so a
// producer never runs ahead of its consumer or beside it, and the buffer
// is free again when flush returns. If produce returns an error, Next
// reports it after the chunks flushed so far; if produce panics, Next
// panics with the same value.
//
// The coroutine is a goroutine, not iter.Pull: under the race detector
// every finished iter.Pull coroutine keeps its detector state, and a
// test run that drains thousands of streams exhausts the host's memory.
func NewPipe(produce func(flush func([]Event) []Event) error) Iterator {
	return &pipe{produce: produce, out: make(chan []Event), resume: make(chan bool)}
}

func (p *pipe) run() {
	defer close(p.out)
	defer func() {
		if r := recover(); r != nil && r != any(pipeStop{}) {
			p.fault = r
		}
	}()
	p.err = p.produce(p.flush)
}

// flush hands buf to the consumer and waits for it to ask for the next
// chunk, then returns the stage's buffer. It unwinds the producer with
// pipeStop when the consumer closes the pipe instead.
func (p *pipe) flush(buf []Event) []Event {
	if len(buf) > 0 {
		p.out <- buf
		if !<-p.resume {
			panic(pipeStop{})
		}
	}
	if p.buf == nil {
		p.buf = grabChunk()
	}
	return p.buf[:0]
}

func (p *pipe) Next() ([]Event, error) {
	if p.done {
		return nil, p.err
	}
	if p.started {
		p.resume <- true
	} else {
		p.started = true
		go p.run()
	}
	if chunk, ok := <-p.out; ok {
		return chunk, nil
	}
	p.finish()
	if p.fault != nil {
		panic(p.fault)
	}
	return nil, p.err
}

// Close stops a producer that is waiting in flush and returns once it
// has exited.
func (p *pipe) Close() {
	if p.started && !p.done {
		p.resume <- false
		for range p.out {
		}
	}
	p.finish()
}

// finish marks the stream ended and returns the stage's buffer to the
// pool; the producer has exited.
func (p *pipe) finish() {
	p.done = true
	putChunk(p.buf)
	p.buf = nil
}

// readAhead is the Iterator ReadAhead returns. Its goroutine fills two
// buffers in turn and hands each over on an unbuffered channel, so a
// completed send means the caller has called Next again and is done
// with the other buffer.
type readAhead struct {
	ch     chan []Event
	stop   chan struct{} // closed by Close
	done   chan struct{} // closed when the goroutine has closed the wrapped iterator
	cur    []Event       // the chunk the caller holds
	err    error         // the stream's error, set before done closes
	fault  any           // the wrapped iterator's panic, set before done closes
	closed bool
}

// ReadAhead returns an Iterator over the events of it whose producer
// runs one chunk ahead of the caller, on a goroutine of its own: while
// the caller works on one chunk, the goroutine produces the next and
// copies it into a buffer it owns. The goroutine is the only caller of
// it.Next and it.Close. A panic there is raised again in the caller's
// Next, and Close returns only once the goroutine has closed it and
// exited.
//
// A materialized stream (FromTrace) is one chunk already in memory, so
// it is returned as is: nothing is copied and no goroutine starts.
func ReadAhead(it Iterator) Iterator {
	if _, ok := it.(*sliceIterator); ok {
		return it
	}
	r := &readAhead{ch: make(chan []Event), stop: make(chan struct{}), done: make(chan struct{})}
	go r.run(it)
	return r
}

func (r *readAhead) run(it Iterator) {
	var bufs [2][]Event
	i := 0 // bufs[i] is the goroutine's; the caller may hold the other
	defer close(r.done)
	defer func() {
		r.fault = recover()
		putChunk(bufs[i])
	}()
	defer it.Close()
	for ; ; i ^= 1 {
		chunk, err := it.Next()
		if err != nil || chunk == nil {
			r.err = err
			return
		}
		if bufs[i] == nil {
			bufs[i] = grabChunk()
		}
		bufs[i] = append(bufs[i][:0], chunk...)
		select {
		case r.ch <- bufs[i]:
		case <-r.stop:
			return
		}
	}
}

func (r *readAhead) Next() ([]Event, error) {
	select {
	case r.cur = <-r.ch:
		return r.cur, nil
	case <-r.done:
	}
	r.release()
	if r.fault != nil {
		panic(r.fault)
	}
	return nil, r.err
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
	putChunk(r.cur)
	r.cur = nil
}

// sliceSource adapts a materialized Trace to the Source interface.
// Each iterator yields the processor's whole stream as a single chunk;
// the chunk aliases the trace, so the usual validity contract applies.
type sliceSource struct{ t *Trace }

// FromTrace returns a Source backed by a materialized trace: the one
// adapter from trace data (a decoded file, a hand-built or mutated test
// trace) into the pipeline. The source aliases t; the caller must not
// mutate t while iterating.
func FromTrace(t *Trace) Source { return sliceSource{t} }

func (s sliceSource) Name() string { return s.t.Name }

func (s sliceSource) Procs() int { return s.t.Procs() }

func (s sliceSource) Events(proc int) Iterator {
	return &sliceIterator{s: s.t.Streams[proc]}
}

type sliceIterator struct {
	s    Stream
	done bool
}

func (it *sliceIterator) Next() ([]Event, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	if len(it.s) == 0 {
		return nil, nil
	}
	return it.s, nil
}

func (it *sliceIterator) Close() { it.done = true }

// Materialize drains every processor stream of src into a Trace: the
// one way out of the pipeline, for callers that need the whole trace
// at once (persistence via Encode, tests).
func Materialize(src Source) (*Trace, error) {
	t := &Trace{Name: src.Name(), Streams: make([]Stream, src.Procs())}
	for p := range t.Streams {
		err := drain(src, p, func(chunk []Event) error {
			t.Streams[p] = append(t.Streams[p], chunk...)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("trace: materialize %s proc %d: %w", src.Name(), p, err)
		}
	}
	return t, nil
}

// drain feeds each chunk of processor proc's stream to fn, in order,
// and closes the iterator on every path. It stops at the first error,
// from the stream or from fn.
func drain(src Source, proc int, fn func([]Event) error) error {
	it := src.Events(proc)
	defer it.Close()
	for {
		chunk, err := it.Next()
		if err != nil || chunk == nil {
			return err
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
}

// CountEvents drains src and returns the total event and demand-
// reference counts across all processors, without materializing
// anything.
func CountEvents(src Source) (events, demand int, err error) {
	for p := 0; p < src.Procs(); p++ {
		err := drain(src, p, func(chunk []Event) error {
			events += len(chunk)
			for _, e := range chunk {
				if e.Kind.IsDemand() {
					demand++
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return events, demand, nil
}
