package server

import (
	"context"
	"errors"
	"slices"
	"strings"

	"busprefetch/internal/runner"
)

// Admission errors, mapped to HTTP statuses by the handler (429 with a
// Retry-After for a full queue, 503 once the server is draining).
var (
	errQueueFull = errors.New("server: tenant queue is full")
	errDraining  = errors.New("server: draining, not accepting new jobs")
)

// tenantQueue is one tenant's FIFO of jobs waiting for a worker.
type tenantQueue struct {
	tenant string
	jobs   []*Job
}

// admit registers a new job and either answers or queues it, in one
// critical section; hit reports that it was answered. A draining or
// stopped server refuses it. A key whose outcome the result store already
// holds in memory is answered at admission: the job is taken through
// started and completed and retired on the calling goroutine. It takes no
// worker and does not count against the tenant's queue depth, so a hit
// never waits behind a cold run. Every other job is queued, a key still
// computing or held only on disk included; its worker joins the flight or
// reads the disk through ResultStore.Do.
func (s *Server) admit(j *Job) (hit bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return false, errDraining
	}
	payload, hit, failure := s.results.Lookup(j.key)
	if !hit && s.held[j.tenant] >= s.opts.QueueDepth {
		return false, errQueueFull
	}
	// A hit holds its tenant's count only inside this critical section, so
	// retireLocked releases every job alike.
	s.jobs[j.id] = j
	s.held[j.tenant]++
	if hit {
		j.start()
		j.complete(payload, true, failure)
		s.retireLocked(j)
		return true, nil
	}
	i, ok := slices.BinarySearchFunc(s.ring, j.tenant, func(q tenantQueue, t string) int {
		return strings.Compare(q.tenant, t)
	})
	if !ok {
		s.ring = slices.Insert(s.ring, i, tenantQueue{tenant: j.tenant})
		if i < s.next {
			s.next++ // keep the cursor on the tenant it was about to serve
		}
	}
	s.ring[i].jobs = append(s.ring[i].jobs, j)
	s.wakeLocked()
	return false, nil
}

// wakeLocked wakes everything parked on s.wake, the workers and a
// draining Drain, by closing the channel and making a fresh one for the
// next wait.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// retireLocked retires a terminal job, whichever path ended it: answered
// at admission, finished by a worker, or aborted when the base context
// ended. It releases the job's hold on its tenant's queue depth, wakes a
// drain, and enforces the retention cap: j joins the completion-order FIFO
// and the oldest terminal jobs beyond Options.JobRetention leave the
// registry. Only terminal jobs enter the FIFO, so a poll or event stream
// can always find a job that is still queued or running.
func (s *Server) retireLocked(j *Job) {
	if s.held[j.tenant] == 1 {
		delete(s.held, j.tenant)
	} else {
		s.held[j.tenant]--
	}
	if s.draining {
		s.wakeLocked()
	}
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.opts.JobRetention {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// stopLocked runs once the base context ends. No worker will run a queued
// job again, so each fails as aborted and retires, which releases its
// ?wait=1 and event-stream clients and lets a later Drain return. Running
// jobs observe the same cancellation through their compute contexts and
// retire through their workers.
func (s *Server) stopLocked() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, q := range s.ring {
		for _, j := range q.jobs {
			j.fail(&APIError{
				Code:    "aborted",
				Message: "server shut down before the job ran",
				Class:   runner.Classify(context.Canceled).String(),
			})
			s.retireLocked(j)
		}
	}
	s.ring, s.next = nil, 0
	s.wakeLocked()
}

// take pops the next queued job, round-robin across tenants in sorted-name
// order, so a burst from one tenant cannot starve another. With nothing
// queued it returns the channel to park on instead, or neither once the
// worker should exit: the base context has ended, or the server is
// draining.
func (s *Server) take(ctx context.Context) (*Job, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ctx.Err() != nil {
		// Whichever of the worker and the context's AfterFunc sees the
		// cancellation first aborts the queue, so no worker can run a
		// queued job after it.
		s.stopLocked()
	}
	switch {
	case s.stopped:
		return nil, nil
	case len(s.ring) > 0:
		if s.next >= len(s.ring) {
			s.next = 0
		}
		q := &s.ring[s.next]
		j := q.jobs[0]
		q.jobs = q.jobs[1:]
		if len(q.jobs) == 0 {
			s.ring = slices.Delete(s.ring, s.next, s.next+1)
		} else {
			s.next++
		}
		return j, nil
	case s.draining:
		return nil, nil
	}
	return nil, s.wake
}

// work is one worker goroutine: take, execute, retire, repeat. The job's
// own compute consults the result store; the worker frames it with the
// status transitions. Each compute runs under the server's base context,
// not the submitting request's, so a disconnecting client never cancels a
// computation other clients may be waiting on.
func (s *Server) work(ctx context.Context) {
	for {
		j, wake := s.take(ctx)
		switch {
		case j != nil:
			j.start()
			payload, cached, err := j.compute(ctx, j)
			s.mu.Lock()
			j.complete(payload, cached, err)
			s.retireLocked(j)
			s.mu.Unlock()
		case wake != nil:
			<-wake
		default:
			return
		}
	}
}

// Drain stops admission (503) and blocks until every admitted job is
// terminal. Queued jobs still execute: a graceful shutdown finishes
// accepted work. If ctx expires first, Drain returns ctx.Err(), and the
// caller is expected to cancel the server's base context. That aborts
// running cells through the simulator's cancellation polls and fails
// every still-queued job, since no worker would run them again; a later
// Drain then returns once the running jobs have retired.
func (s *Server) Drain(ctx context.Context) error {
	for {
		s.mu.Lock()
		if !s.draining {
			s.draining = true
			s.wakeLocked()
		}
		idle, wake := len(s.held) == 0, s.wake
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// queueStats is the queue's /v1/stats contribution.
type queueStats struct {
	Pending  int  `json:"pending"`
	Active   int  `json:"active"`
	Tenants  int  `json:"tenants"`
	Depth    int  `json:"depth"`
	Draining bool `json:"draining"`
}

func (s *Server) stats() queueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := queueStats{Tenants: len(s.held), Depth: s.opts.QueueDepth, Draining: s.draining}
	for _, q := range s.ring {
		st.Pending += len(q.jobs)
	}
	for _, n := range s.held {
		st.Active += n
	}
	return st
}
