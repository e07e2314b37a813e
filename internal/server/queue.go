package server

import (
	"context"
	"errors"
	"sort"
	"sync"

	"busprefetch/internal/runner"
)

// Scheduling errors, mapped to HTTP statuses by the handler (429 with a
// Retry-After for a full queue, 503 once the server is draining).
var (
	errQueueFull = errors.New("server: tenant queue is full")
	errDraining  = errors.New("server: draining, not accepting new jobs")
)

// scheduler fans accepted jobs across a fixed pool of worker goroutines with
// one bounded FIFO queue per tenant. Admission is per-tenant — a tenant may
// hold at most depth jobs queued-or-running, so one client flooding the
// service backpressures itself (429) without starving anyone else — and
// dispatch is round-robin across tenants in sorted-name order, so service is
// fair regardless of submission bursts.
type scheduler struct {
	depth int

	mu       sync.Mutex
	cond     *sync.Cond // signalled on submit, drain, and job completion
	pending  map[string][]*Job
	inflight map[string]int // queued + running per tenant (admission counter)
	tenants  []string       // sorted round-robin ring of tenants with pending work
	next     int            // ring cursor
	draining bool
	stopped  bool // base context cancelled: workers are exiting, nothing runs again
	active   int  // jobs admitted and not yet terminal (drain barrier)
	idle     chan struct{}
}

// newScheduler starts workers goroutines executing jobs under ctx. Each
// job's compute runs under that base context — not the submitting request's
// — so a disconnecting client never cancels a computation other clients may
// be waiting on; cancelling ctx (the drain deadline path) aborts everything.
func newScheduler(ctx context.Context, workers, depth int) *scheduler {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 8
	}
	s := &scheduler{
		depth:    depth,
		pending:  make(map[string][]*Job),
		inflight: make(map[string]int),
		idle:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	// A watcher turns ctx cancellation into a broadcast so parked workers
	// observe it. Broadcasting under the mutex closes the missed-wakeup
	// window between a worker's ctx check and its Wait. Cancellation also
	// aborts every still-queued job: workers are about to exit, so nothing
	// would ever run those jobs, and leaving them admitted would wedge both
	// Drain (active never reaches 0) and clients blocked on the jobs.
	context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.stopped = true
		s.abortPendingLocked()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	for i := 0; i < workers; i++ {
		go s.work(ctx)
	}
	return s
}

// submit admits a job into its tenant's queue, or rejects it with
// errQueueFull / errDraining. Admission and execution both count against the
// tenant's depth: a tenant cannot park depth jobs and run depth more.
func (s *scheduler) submit(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedLocked() {
		return errDraining
	}
	if s.inflight[j.tenant] >= s.depth {
		return errQueueFull
	}
	s.inflight[j.tenant]++
	s.active++
	if len(s.pending[j.tenant]) == 0 {
		s.addTenantLocked(j.tenant)
	}
	s.pending[j.tenant] = append(s.pending[j.tenant], j)
	s.cond.Broadcast()
	return nil
}

// closed reports whether admission has stopped: the server is draining or
// its base context is cancelled. A submission answered without the
// scheduler checks it, so it is refused exactly when submit would refuse
// it.
func (s *scheduler) closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closedLocked()
}

func (s *scheduler) closedLocked() bool { return s.draining || s.stopped }

// addTenantLocked inserts t into the sorted round-robin ring, keeping the
// cursor pointed at the same tenant it was about to serve.
func (s *scheduler) addTenantLocked(t string) {
	i := sort.SearchStrings(s.tenants, t)
	s.tenants = append(s.tenants, "")
	copy(s.tenants[i+1:], s.tenants[i:])
	s.tenants[i] = t
	if i < s.next {
		s.next++
	}
}

// take pops the next job round-robin across tenants, blocking until one is
// available or ctx dies. It returns nil when the scheduler should stop
// (context cancelled, or draining with nothing left).
func (s *scheduler) take(ctx context.Context) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			// Belt and suspenders with the AfterFunc watcher: a worker that
			// observes cancellation retires whatever is still queued before
			// exiting, so no admitted job can outlive the worker pool.
			s.abortPendingLocked()
			return nil
		}
		if len(s.tenants) > 0 {
			if s.next >= len(s.tenants) {
				s.next = 0
			}
			t := s.tenants[s.next]
			q := s.pending[t]
			j := q[0]
			if len(q) == 1 {
				delete(s.pending, t)
				s.tenants = append(s.tenants[:s.next], s.tenants[s.next+1:]...)
			} else {
				s.pending[t] = q[1:]
				s.next++
			}
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// finish retires a terminal job from the admission counters and closes the
// idle channel when a drain has nothing left to wait for.
func (s *scheduler) finish(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retireLocked(j)
	s.cond.Broadcast()
}

// retireLocked removes one admitted job from the accounting and signals idle
// when a drain has nothing left to wait for.
func (s *scheduler) retireLocked(j *Job) {
	s.inflight[j.tenant]--
	if s.inflight[j.tenant] == 0 {
		delete(s.inflight, j.tenant)
	}
	s.active--
	if s.draining && s.active == 0 {
		select {
		case <-s.idle:
		default:
			close(s.idle)
		}
	}
}

// abortPendingLocked fails and retires every still-queued job. It runs once
// the scheduler's base context is cancelled (the drain-deadline abort path):
// no worker will ever pick those jobs up, so failing them here is what
// releases their ?wait=1 and event-stream clients and lets the accounting
// reach idle so a post-abort Drain returns. Running jobs are not touched —
// they observe the same cancellation through their compute contexts and
// retire through the normal worker path.
func (s *scheduler) abortPendingLocked() {
	for t, q := range s.pending {
		for _, j := range q {
			j.fail(&APIError{
				Code:    "aborted",
				Message: "server shut down before the job ran",
				Class:   runner.Classify(context.Canceled).String(),
			})
			s.retireLocked(j)
		}
		delete(s.pending, t)
	}
	s.tenants = nil
	s.next = 0
}

// work is one worker goroutine: pull, execute, repeat. The job's own
// compute handles result-store consultation; the worker just frames it with
// status transitions and admission accounting.
func (s *scheduler) work(ctx context.Context) {
	for {
		j := s.take(ctx)
		if j == nil {
			return
		}
		j.start()
		j.complete(j.compute(ctx, j))
		s.finish(j)
	}
}

// Drain stops admission and blocks until every in-flight job reaches a
// terminal state. Queued jobs still execute — a graceful shutdown finishes
// accepted work — but if ctx expires first the caller is expected to cancel
// the scheduler's base context, which aborts running cells through the
// simulator's cancellation polls and fails every still-queued job (no
// worker would ever run them again); a subsequent Drain call then observes
// the accounting reach idle and returns. Drain itself returns ctx.Err()
// when its deadline expires.
func (s *scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.active == 0 {
		select {
		case <-s.idle:
		default:
			close(s.idle)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queueStats is the scheduler's /v1/stats contribution.
type queueStats struct {
	Pending  int  `json:"pending"`
	Active   int  `json:"active"`
	Tenants  int  `json:"tenants"`
	Depth    int  `json:"depth"`
	Draining bool `json:"draining"`
}

func (s *scheduler) stats() queueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := 0
	for _, q := range s.pending {
		pending += len(q)
	}
	return queueStats{
		Pending:  pending,
		Active:   s.active,
		Tenants:  len(s.inflight),
		Depth:    s.depth,
		Draining: s.draining,
	}
}
