package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Task is one named unit of independent work.
type Task struct {
	// Label identifies the task in timings and progress output.
	Label string
	// Run executes the task. It must be safe to call concurrently with
	// other tasks' Run functions. The context is the one passed to Pool.Do;
	// long-running tasks should honor its cancellation.
	Run func(ctx context.Context) error
}

// Timing records one executed task's wall-clock cost and outcome.
type Timing struct {
	Label    string
	Duration time.Duration
	// Err is the task's final error text ("" on success), so progress and
	// benchmark consumers can label exactly which cells failed without
	// re-correlating against the error slice. A task skipped because the
	// sweep was cancelled before it started carries the cancellation error
	// and a zero Duration.
	Err string
}

// PanicError is a task panic captured by Pool.Do's per-task isolation: one
// panicking cell fails alone instead of crashing the whole sweep (and, under
// a long-lived server, the whole process). It is terminal by classification —
// a panic is a bug that recurs on every run.
type PanicError struct {
	// Label is the panicking task's label.
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %q panicked: %v", e.Label, e.Value)
}

// Pool executes tasks on a bounded number of concurrent workers.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given worker bound; values <= 0 select
// runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Do executes every task, at most Workers at a time, and returns the
// per-task errors and timings in input order — the reduction is canonical no
// matter how execution interleaved. A failing task never stops the others,
// and a panicking task is isolated: its panic is recovered into a
// *PanicError in its error slot rather than crashing the process.
//
// Cancelling ctx stops the sweep at task boundaries: running tasks see the
// cancellation through their own ctx and wind down; tasks that have not
// started are skipped, their error slot set to ctx.Err(). Do always waits
// for running tasks to return, so when it returns the pool is fully drained.
//
// onDone, when non-nil, is called after each task completes — run, failed,
// panicked, or skipped — with the number finished so far; calls are
// serialized but not ordered by task index, and done always reaches
// len(tasks) exactly once per task, even when tasks error early.
func (p *Pool) Do(ctx context.Context, tasks []Task, onDone func(done, total int)) ([]error, []Timing) {
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, len(tasks))
	times := make([]Timing, len(tasks))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes onDone
		done int
	)
	finish := func(i int) {
		times[i].Label = tasks[i].Label
		if errs[i] != nil {
			times[i].Err = errs[i].Error()
		}
		if onDone != nil {
			mu.Lock()
			done++
			onDone(done, len(tasks))
			mu.Unlock()
		}
	}
	sem := make(chan struct{}, p.workers)
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// The sweep was cancelled while this task queued for a
				// worker: skip it without running, but still count it so
				// progress totals stay correct.
				errs[i] = ctx.Err()
				finish(i)
				return
			}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				finish(i)
				return
			}
			start := time.Now()
			errs[i] = runIsolated(ctx, tasks[i])
			times[i].Duration = time.Since(start)
			finish(i)
		}(i)
	}
	wg.Wait()
	return errs, times
}

// runIsolated runs one task with panic isolation.
func runIsolated(ctx context.Context, t Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Label: t.Label, Value: r, Stack: debug.Stack()}
		}
	}()
	return t.Run(ctx)
}
