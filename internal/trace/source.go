package trace

import (
	"fmt"
	"sync"
)

// Source is a pull-based stream of trace events, one iterator per
// processor. It is the only input the sharing analysis, the prefetch
// annotator and the simulator accept: events flow straight from the
// producer to the consumer in pooled chunks, with no materialized
// trace in between. FromTrace and Materialize are the only bridges to
// and from a whole in-memory Trace.
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
// finish with (or copy) a chunk before asking for the next one. Next
// returns a nil chunk at end of stream, with a non-nil error if the
// stream failed (for example a corrupt encoded trace). Close releases
// the iterator's resources and stops any producer goroutine; it is
// safe to call more than once, and must be called when abandoning an
// iterator before end of stream.
type Iterator interface {
	Next() ([]Event, error)
	Close()
}

// chunkEvents is the number of events per pooled chunk: 4096 events ≈
// 64 KiB, large enough to amortize per-chunk overheads to fractions of
// a nanosecond per event, small enough to stay cache-resident.
const chunkEvents = 4096

// pipeDepth bounds the number of chunks in flight between a producer
// goroutine and its consumer.
const pipeDepth = 4

// chunkPool recycles event chunks across iterators and cells so the
// steady-state generate path allocates nothing.
var chunkPool = sync.Pool{
	New: func() any { return make([]Event, 0, chunkEvents) },
}

func grabChunk() []Event { return chunkPool.Get().([]Event)[:0] }

func putChunk(c []Event) {
	if cap(c) == chunkEvents {
		chunkPool.Put(c[:0])
	}
}

// pipeStop unwinds a producer goroutine when its consumer closes the
// iterator early.
type pipeStop struct{}

// pipe is an Iterator fed by a producer goroutine through a bounded
// channel of pooled chunks. Consumed chunks are recycled back to the
// producer through the free channel, so a drained stream reuses the
// same pipeDepth+1 buffers end to end.
type pipe struct {
	ch     chan []Event
	free   chan []Event
	stop   chan struct{}
	errc   chan error
	cur    []Event
	err    error
	done   bool
	closed bool
}

// NewPipe returns an Iterator whose events are produced by produce,
// run in its own goroutine. produce fills chunks and hands them
// downstream via flush, which delivers buf (if non-empty) and returns
// an empty buffer to keep filling; produce must flush its final
// partial chunk before returning. The flush function blocks when the
// consumer falls behind, so producer and consumer overlap without
// unbounded buffering. If produce returns an error, Next reports it
// after the chunks flushed so far.
func NewPipe(produce func(flush func([]Event) []Event) error) Iterator {
	p := &pipe{
		ch:   make(chan []Event, pipeDepth),
		free: make(chan []Event, pipeDepth+1),
		stop: make(chan struct{}),
		errc: make(chan error, 1),
	}
	go p.run(produce)
	return p
}

func (p *pipe) run(produce func(flush func([]Event) []Event) error) {
	defer close(p.ch)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pipeStop); ok {
				p.errc <- nil
				return
			}
			panic(r)
		}
	}()
	p.errc <- produce(p.flush)
}

// flush sends a filled chunk downstream and returns an empty buffer,
// recycled from the consumer when one is available. It panics with
// pipeStop when the consumer has closed the pipe, unwinding the
// producer through NewPipe's recover.
func (p *pipe) flush(buf []Event) []Event {
	if len(buf) > 0 {
		select {
		case p.ch <- buf:
		case <-p.stop:
			panic(pipeStop{})
		}
	}
	select {
	case next := <-p.free:
		return next[:0]
	default:
		return grabChunk()
	}
}

func (p *pipe) Next() ([]Event, error) {
	if p.done {
		return nil, p.err
	}
	if p.cur != nil {
		select {
		case p.free <- p.cur[:0]:
		default:
			putChunk(p.cur)
		}
		p.cur = nil
	}
	buf, ok := <-p.ch
	if !ok {
		p.done = true
		p.err = <-p.errc
		return nil, p.err
	}
	p.cur = buf
	return buf, nil
}

func (p *pipe) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.stop)
	// Drain so a producer blocked on a full channel sees stop and
	// exits; recycle everything it had in flight.
	for buf := range p.ch {
		putChunk(buf)
	}
	if p.cur != nil {
		putChunk(p.cur)
		p.cur = nil
	}
	for {
		select {
		case buf := <-p.free:
			putChunk(buf)
		default:
			p.done = true
			return
		}
	}
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
