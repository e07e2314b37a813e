package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"busprefetch"
	"busprefetch/internal/buildinfo"
	"busprefetch/internal/bus"
	"busprefetch/internal/coherence"
	"busprefetch/internal/experiments"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/names"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/runner"
)

// Options configures a Server.
type Options struct {
	// Workers is how many jobs (runs or whole sweeps) execute concurrently;
	// 0 selects 2. Shards is each sweep's internal cell parallelism
	// (experiments.Config.Parallelism; 0 selects GOMAXPROCS) — the seam a
	// multi-process deployment would push sweep cells across.
	Workers int
	Shards  int
	// QueueDepth bounds each tenant's queued-plus-running jobs; a submission
	// beyond it is rejected with 429 and a Retry-After. Result-store hits,
	// answered at admission, never count against it. 0 selects 8.
	QueueDepth int
	// Checkpoints, when non-nil, is the durable tier: completed results
	// persist into it (CRC-framed, quarantined on corruption) and completed
	// sweep cells checkpoint into it, so both whole results and partial
	// sweeps survive a restart.
	Checkpoints *runner.CheckpointStore
	// Timeout bounds each sweep cell's one run (experiments.Config.Timeout).
	Timeout time.Duration
	// JobRetention caps how many terminal job resources the server keeps
	// addressable: past it, the oldest-finished jobs are evicted (their ids
	// answer 404) so an always-on service does not grow without bound. The
	// evicted results remain reproducible from the result store — resubmit
	// the spec and it is served as a cache hit. 0 selects 512.
	JobRetention int
	// Logf, when non-nil, receives one line per admitted job: scheduled, or
	// answered from the result store.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.JobRetention <= 0 {
		o.JobRetention = 512
	}
	return o
}

// Server is the experiment service: submissions become Jobs on per-tenant
// queues, a fixed pool of workers runs them, every computation runs
// through a content-addressed ResultStore keyed by (canonical spec string,
// build revision), and results stream back as resources and NDJSON event
// feeds. See docs/API.md for the HTTP surface.
//
// One mutex, mu, guards every job transition the server sees: admission,
// dispatch, retirement, drain and stop (queue.go). Locks are taken in one
// order: mu, then the result store's, then a job's.
type Server struct {
	opts    Options
	results *runner.ResultStore
	seq     atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*Job // registry: every queued, running and retained job
	retired  []string        // terminal job ids in completion order (eviction FIFO)
	ring     []tenantQueue   // tenants with queued jobs, sorted by name; dispatch walks it round-robin
	next     int             // ring cursor
	held     map[string]int  // queued plus running jobs per tenant, against Options.QueueDepth
	draining bool
	stopped  bool // base context ended: nothing runs again
	// wake is closed and replaced when work arrives, the server drains or
	// stops, or a job retires during a drain.
	wake chan struct{}
}

// New creates a Server and starts its Options.Workers workers. Jobs run
// under ctx: cancelling it aborts every running computation and fails
// every queued job (the drain-deadline path; see Drain).
func New(ctx context.Context, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		results: runner.NewResultStore(opts.Checkpoints),
		jobs:    make(map[string]*Job),
		held:    make(map[string]int),
		wake:    make(chan struct{}),
	}
	context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stopLocked()
	})
	for range opts.Workers {
		go s.work(ctx)
	}
	return s
}

// logf logs one line through Options.Logf, when configured.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// APIError is the wire form of every failure: HTTP-level errors fill the
// whole response body with {"error": ...}; job-level failures embed it in
// the job resource. Class carries the runner.Classify taxonomy for
// compute failures ("terminal" or "retryable"), so a client knows whether
// resubmitting the same spec can ever succeed.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Class   string `json:"class,omitempty"`
}

func (e *APIError) Error() string { return e.Message }

// apiErrorFrom wraps a compute failure with its classification.
func apiErrorFrom(err error) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	return &APIError{Code: "compute_failed", Message: err.Error(), Class: runner.Classify(err).String()}
}

// JobResource is the API representation of a job
// (GET /v1/{runs,sweeps}/{id}). Result is a RunResult or SweepResult once
// Status is "done"; Error is set once Status is "failed".
type JobResource struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Tenant string          `json:"tenant"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *APIError       `json:"error,omitempty"`
}

// RunRequest is the body of POST /v1/runs: busprefetch.RunSpec itself,
// whose fields carry the wire names. Zero values select RunSpec's defaults.
type RunRequest = busprefetch.RunSpec

// Handler returns the service's HTTP handler (the full /v1 surface).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetJob("run"))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetJob("sweep"))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents("run"))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents("sweep"))
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/meta", s.handleMeta)
	return mux
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes an error-only body: {"error": {...}}.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, map[string]*APIError{"error": {Code: code, Message: message}})
}

// tenant resolves the submission's tenant: the X-Tenant header, or the
// shared "default" queue.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// maxBodyBytes bounds a request body. A run or sweep spec is a few hundred
// bytes; the bound stops a client from making the server buffer, and echo
// back in an error, an arbitrarily large body.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the request body into v, or answers the
// client error itself and reports false. Unknown fields are a client error
// (they are almost always a typo'd knob that would otherwise silently
// revert to its default), and so is a body over maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid_body", err.Error())
	}
	return err == nil
}

// submit admits a new job, mapping admission failures to their statuses,
// then answers 202 with the job resource (or, under ?wait=1, blocks until
// the job is terminal and answers 200).
func (s *Server) submit(w http.ResponseWriter, r *http.Request, j *Job) {
	switch hit, err := s.admit(j); {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("tenant %q already has %d jobs queued or running; retry shortly", j.tenant, s.opts.QueueDepth))
		return
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; not accepting new jobs")
		return
	case hit:
		s.logf("answered %s from the result store (tenant %s, key %s)", j.id, j.tenant, j.key)
	default:
		s.logf("accepted %s (tenant %s, key %s)", j.id, j.tenant, j.key)
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, j.resource())
		case <-r.Context().Done():
			// The client gave up; the job keeps running and remains pollable.
		}
		return
	}
	w.Header().Set("Location", fmt.Sprintf("/v1/%ss/%s", j.kind, j.id))
	writeJSON(w, http.StatusAccepted, j.resource())
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var spec RunRequest
	if !decodeBody(w, r, &spec) {
		return
	}
	key, err := runKey(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_spec", err.Error())
		return
	}
	echo, _ := json.Marshal(spec)
	id := fmt.Sprintf("run-%d", s.seq.Add(1))
	j := newJob(id, "run", tenant(r), echo, key,
		func(ctx context.Context, j *Job) ([]byte, bool, error) {
			return s.results.Do(ctx, key, func(ctx context.Context) ([]byte, bool, error) {
				return computeRun(ctx, spec)
			})
		})
	s.submit(w, r, j)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	plan, err := planSweep(req, s.opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_spec", err.Error())
		return
	}
	key := plan.key()
	echo, _ := json.Marshal(req)
	id := fmt.Sprintf("sweep-%d", s.seq.Add(1))
	j := newJob(id, "sweep", tenant(r), echo, key,
		func(ctx context.Context, j *Job) ([]byte, bool, error) {
			return s.results.Do(ctx, key, func(ctx context.Context) ([]byte, bool, error) {
				return computeSweep(ctx, j, plan)
			})
		})
	s.submit(w, r, j)
}

// job looks a job up by id, kind-checked: a run id is not addressable under
// /v1/sweeps and vice versa.
func (s *Server) job(id, kind string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.kind != kind {
		return nil, false
	}
	return j, true
}

func (s *Server) handleGetJob(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(r.PathValue("id"), kind)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown_id", fmt.Sprintf("no %s with id %q", kind, r.PathValue("id")))
			return
		}
		if r.URL.Query().Get("wait") != "" {
			select {
			case <-j.Done():
			case <-r.Context().Done():
				return
			}
		}
		writeJSON(w, http.StatusOK, j.resource())
	}
}

// handleEvents streams a job's progress as NDJSON: one Event per line,
// flushed as produced, ending after the terminal "done"/"failed" event. A
// client may connect at any point in the job's life — the stream always
// replays from the first event, so it is a complete, gapless history.
func (s *Server) handleEvents(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(r.PathValue("id"), kind)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown_id", fmt.Sprintf("no %s with id %q", kind, r.PathValue("id")))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		after := 0
		for {
			events, next := j.eventsAfter(after)
			for _, e := range events {
				if enc.Encode(e) != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			after += len(events)
			if next == nil {
				return
			}
			select {
			case <-next:
			case <-r.Context().Done():
				return
			}
		}
	}
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"version":  buildinfo.String("benchserver"),
		"revision": buildinfo.Revision(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.stats().Draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": status})
}

// statsResponse is the /v1/stats body: the result store's hit economics,
// the durable tier's integrity counters, the queue's load, and a job
// census by status.
type statsResponse struct {
	Results     runner.ResultStats      `json:"results"`
	Checkpoints *runner.CheckpointStats `json:"checkpoints,omitempty"`
	Queue       queueStats              `json:"queue"`
	Jobs        map[string]int          `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Results: s.results.Stats(),
		Queue:   s.stats(),
		Jobs:    map[string]int{},
	}
	if s.opts.Checkpoints != nil {
		cs := s.opts.Checkpoints.Stats()
		resp.Checkpoints = &cs
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		resp.Jobs[j.status]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleMeta enumerates every valid name a spec field accepts, so clients
// can build requests without hardcoding the vocabulary.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	var workloads []map[string]any
	for _, wl := range busprefetch.Workloads() {
		workloads = append(workloads, map[string]any{
			"name": wl.Name, "description": wl.Description, "default_procs": wl.DefaultProcs,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workloads":     workloads,
		"strategies":    busprefetch.Strategies(),
		"prefetchers":   names.List(prefetch.Kinds(), prefetch.Kind.String),
		"protocols":     names.List(coherence.Kinds(), coherence.Kind.String),
		"interconnects": names.List(interconnect.Kinds(), interconnect.Kind.String),
		"disciplines":   names.List(bus.Disciplines(), bus.Discipline.String),
		"sections":      experiments.SectionNames(),
		"transfers":     experiments.DefaultConfig().Transfers,
		"workers":       s.opts.Workers,
		"shards":        s.opts.Shards,
	})
}
