package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDrainCompletesInFlightAndRejectsNew is the graceful-shutdown
// regression: once Drain begins, new submissions are 503 draining, but jobs
// already accepted — running or still queued — execute to completion before
// Drain returns.
func TestDrainCompletesInFlightAndRejectsNew(t *testing.T) {
	s, h := testServer(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	inject := func(id string) *Job {
		j := blockingJob(id, "alice", release)
		w := httptest.NewRecorder()
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.submit(w, httptest.NewRequest("POST", "/v1/runs", nil), j)
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s: %d", id, w.Code)
		}
		return j
	}
	running := inject("d1") // one worker: d1 runs, d2 queues
	queued := inject("d2")

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Draining must surface before it finishes: healthz flips and new
	// submissions bounce.
	waitFor(t, func() bool { return s.stats().Draining })
	var r JobResource
	if w := do(t, h, "POST", "/v1/runs", "", tinyRun(), &r); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", w.Code)
	}
	if w := do(t, h, "GET", "/v1/healthz", "", nil, nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", w.Code)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with jobs still in flight", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, j := range []*Job{running, queued} {
		res := j.resource()
		if res.Status != StatusDone {
			t.Errorf("%s finished as %s, want done (accepted work must complete)", res.ID, res.Status)
		}
	}
}

// TestDrainDeadlineAbortsThroughContext: when the drain deadline expires the
// caller cancels the server's base context, which aborts the in-flight
// compute through the same context plumbing the simulator polls; the job
// fails with a cancellation-classified error and Drain's second wait
// completes.
func TestDrainDeadlineAbortsThroughContext(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	s := New(base, Options{Workers: 1})

	release := make(chan struct{}) // never closed: the job only ends by abort
	j := blockingJob("stuck", "alice", release)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	w := httptest.NewRecorder()
	s.submit(w, httptest.NewRequest("POST", "/v1/runs", nil), j)

	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if err := s.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain under deadline = %v, want DeadlineExceeded", err)
	}
	// The benchserver shutdown path: deadline hit → cancel the base context,
	// then wait out the (now aborting) jobs.
	cancelBase()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("post-abort Drain: %v", err)
	}
	res := j.resource()
	if res.Status != StatusFailed || res.Error == nil {
		t.Fatalf("aborted job = %+v, want failed", res)
	}
	if res.Error.Class != "terminal" {
		t.Errorf("abort classified %q, want terminal (cancellation)", res.Error.Class)
	}
}

// TestDrainIdleReturnsImmediately: draining an idle server does not hang.
func TestDrainIdleReturnsImmediately(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("idle Drain: %v", err)
	}
}

// waitFor polls cond to true within the test deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestDrainAbortFailsQueuedJobs is the reviewer's repro for the shutdown
// wedge: one worker, one running job (which never finishes on its own) plus
// one queued job. The drain deadline expires, the base context is cancelled
// — and the queued job, which no worker will ever pick up, must be failed
// and retired so the post-abort Drain(Background) returns instead of
// hanging the process, and so clients blocked on the queued job are
// released.
func TestDrainAbortFailsQueuedJobs(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	s := New(base, Options{Workers: 1})

	release := make(chan struct{}) // never closed: jobs only end by abort
	inject := func(id string) *Job {
		j := blockingJob(id, "alice", release)
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		w := httptest.NewRecorder()
		s.submit(w, httptest.NewRequest("POST", "/v1/runs", nil), j)
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s: %d", id, w.Code)
		}
		return j
	}
	running := inject("r1")
	queued := inject("r2")

	// A client parked on the queued job the way ?wait=1 is.
	waiterDone := make(chan struct{})
	go func() { <-queued.Done(); close(waiterDone) }()

	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if err := s.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain under deadline = %v, want DeadlineExceeded", err)
	}
	cancelBase()

	done := make(chan error, 1)
	go func() { done <- s.Drain(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-abort Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-abort Drain never returned: queued jobs were not retired")
	}
	select {
	case <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("client waiting on the queued job was never released")
	}

	if res := running.resource(); res.Status != StatusFailed {
		t.Errorf("running job = %s, want failed (aborted through its context)", res.Status)
	}
	res := queued.resource()
	if res.Status != StatusFailed || res.Error == nil || res.Error.Code != "aborted" {
		t.Fatalf("queued job = %+v, want failed with code aborted", res)
	}
	if st := s.stats(); st.Pending != 0 || st.Active != 0 {
		t.Errorf("queue stats = %+v, want fully retired accounting", st)
	}

	// The server is stopped: a late submission must bounce, not enqueue into
	// a pool with no workers.
	late := blockingJob("r3", "alice", release)
	s.mu.Lock()
	s.jobs[late.id] = late
	s.mu.Unlock()
	w := httptest.NewRecorder()
	s.submit(w, httptest.NewRequest("POST", "/v1/runs", nil), late)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("submit after abort: %d, want 503", w.Code)
	}
}
