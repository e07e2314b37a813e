package server

import (
	"context"
	"encoding/json"
	"sync"
)

// Job statuses, in lifecycle order. A job moves queued → running →
// done|failed and never backwards; a result-store hit makes those moves on
// the submitting request's goroutine before it is answered.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Event is one line of a job's NDJSON progress stream
// (GET /v1/{runs,sweeps}/{id}/events). Seq is contiguous from 1, so a client
// that reconnects can detect gaps; the stream ends after the terminal "done"
// or "failed" event.
type Event struct {
	Seq   int    `json:"seq"`
	Event string `json:"event"`
	// Done/Total carry sweep cell progress on "progress" events (the
	// runner.Pool onDone counters riding straight through).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Message carries human-readable detail on "failed" events.
	Message string `json:"message,omitempty"`
}

// Job is one accepted submission: a single run or a whole sweep. A worker
// executes it once, or admission answers it from the result store; its
// result (or error) then serves every poll and event stream. Fields under
// mu are mutable; everything else is set at submission and read-only
// afterwards.
type Job struct {
	id     string
	kind   string // "run" | "sweep"
	tenant string
	spec   json.RawMessage // echo of the validated request body
	key    string          // content-addressed result-store key
	// compute produces the result payload and whether the result store
	// served it; it runs under the server's job context (not the submitting
	// request's, so a disconnecting client never cancels work other clients
	// may be waiting on).
	compute func(ctx context.Context, j *Job) ([]byte, bool, error)

	mu     sync.Mutex
	status string
	cached bool
	events []Event
	result json.RawMessage
	apiErr *APIError
	next   chan struct{} // closed at the next event; made when a stream waits for one
	done   chan struct{} // closed on terminal status
}

func newJob(id, kind, tenant string, spec json.RawMessage, key string,
	compute func(ctx context.Context, j *Job) ([]byte, bool, error)) *Job {
	j := &Job{id: id, kind: kind, tenant: tenant, spec: spec, key: key,
		compute: compute, status: StatusQueued, done: make(chan struct{})}
	j.appendEventLocked(Event{Event: "queued"})
	return j
}

// appendEventLocked stamps the next sequence number and wakes streamers.
// Callers hold j.mu or are inside a method that does.
func (j *Job) appendEventLocked(e Event) {
	e.Seq = len(j.events) + 1
	j.events = append(j.events, e)
	if j.next != nil {
		close(j.next)
		j.next = nil
	}
}

// progress records sweep cell progress (the Prewarm callback target).
func (j *Job) progress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(Event{Event: "progress", Done: done, Total: total})
}

func (j *Job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusRunning
	j.appendEventLocked(Event{Event: "started"})
}

// complete records a compute's outcome: the result payload, where cached
// reports whether the result store served it without recomputation, or the
// failure err, classified.
func (j *Job) complete(payload []byte, cached bool, err error) {
	if err != nil {
		j.fail(apiErrorFrom(err))
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = json.RawMessage(payload)
	j.cached = cached
	j.status = StatusDone
	if cached {
		j.appendEventLocked(Event{Event: "cached"})
	}
	j.appendEventLocked(Event{Event: "done"})
	close(j.done)
}

func (j *Job) fail(apiErr *APIError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.apiErr = apiErr
	j.status = StatusFailed
	j.appendEventLocked(Event{Event: "failed", Message: apiErr.Message})
	close(j.done)
}

// Done exposes the terminal-state channel (?wait=1 blocks on it).
func (j *Job) Done() <-chan struct{} { return j.done }

// resource renders the job as its API representation.
func (j *Job) resource() *JobResource {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobResource{
		ID:     j.id,
		Kind:   j.kind,
		Tenant: j.tenant,
		Status: j.status,
		Cached: j.cached,
		Spec:   j.spec,
		Result: j.result,
		Error:  j.apiErr,
	}
}

// eventsAfter returns the events with Seq > after, and a channel closed at
// the job's next event. The channel is nil once the job is terminal: the
// events returned are then the last.
func (j *Job) eventsAfter(after int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	events := append([]Event(nil), j.events[after:]...)
	if j.status == StatusDone || j.status == StatusFailed {
		return events, nil
	}
	if j.next == nil {
		j.next = make(chan struct{})
	}
	return events, j.next
}
