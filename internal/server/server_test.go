package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"busprefetch/internal/bus"
	"busprefetch/internal/coherence"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/prefetch"
)

// testServer builds a Server plus its handler over a cancellable base
// context, with small-test defaults.
func testServer(t *testing.T, opts Options) (*Server, http.Handler) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s := New(ctx, opts)
	return s, s.Handler()
}

// do performs one request against the handler and decodes the JSON body.
func do(t *testing.T, h http.Handler, method, path, tenant string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: body %q does not decode: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

// tinyRun is a fast single-simulation request for handler tests.
func tinyRun() RunRequest {
	return RunRequest{Workload: "mp3d", Strategy: "PREF", Transfer: 8, Scale: 0.02}
}

// TestSubmitRunWaitAndCacheHit is the core API economics test: a run
// submitted with ?wait=1 completes with metrics; the identical spec
// resubmitted — by a different tenant, in different field case — is served
// from the result store with byte-identical result bytes, and the store's
// stats prove no recomputation happened.
func TestSubmitRunWaitAndCacheHit(t *testing.T) {
	s, h := testServer(t, Options{Workers: 1})
	var first JobResource
	w := do(t, h, "POST", "/v1/runs?wait=1", "alice", tinyRun(), &first)
	if w.Code != http.StatusOK {
		t.Fatalf("first submit: %d %s", w.Code, w.Body.String())
	}
	if first.Status != StatusDone || first.Cached || first.Kind != "run" {
		t.Fatalf("first = %+v, want done, uncached run", first)
	}
	var res RunResult
	if err := json.Unmarshal(first.Result, &res); err != nil || res.Metrics == nil {
		t.Fatalf("result %s: %v", first.Result, err)
	}
	if res.Metrics.Cycles == 0 || res.Metrics.Workload != "mp3d" {
		t.Errorf("metrics = %+v, want a real mp3d run", res.Metrics)
	}

	// Same spec, different tenant and name case: one canonical key.
	req2 := tinyRun()
	req2.Strategy = "pref"
	var second JobResource
	do(t, h, "POST", "/v1/runs?wait=1", "bob", req2, &second)
	if second.Status != StatusDone || !second.Cached {
		t.Fatalf("second = status %s cached %v, want cached done", second.Status, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result differs from original:\n%s\nvs\n%s", first.Result, second.Result)
	}

	// Every default spelled out, the workload upper-cased: still one key.
	req3 := RunRequest{Workload: "MP3D", Strategy: "PREF", Prefetcher: "oracle", Transfer: 8, MemLatency: 100,
		Procs: 12, Scale: 0.02, Seed: 1, CacheKB: 32, LineBytes: 32, Protocol: "illinois",
		Interconnect: "bus", Buses: 1, Discipline: "priority"}
	var third JobResource
	do(t, h, "POST", "/v1/runs?wait=1", "carol", req3, &third)
	if third.Status != StatusDone || !third.Cached || !bytes.Equal(first.Result, third.Result) {
		t.Errorf("third = status %s cached %v result %s, want the cached original", third.Status, third.Cached, third.Result)
	}
	if st := s.results.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("result-store stats = %+v, want 1 miss + 2 hits", st)
	}
}

// TestSubmitAsyncAndPoll covers the 202 path: submission returns a Location
// and a queued/running resource, and polling with ?wait=1 returns the
// terminal state.
func TestSubmitAsyncAndPoll(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1})
	var r JobResource
	w := do(t, h, "POST", "/v1/runs", "", tinyRun(), &r)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	loc := w.Header().Get("Location")
	if loc != "/v1/runs/"+r.ID {
		t.Fatalf("Location = %q, id %q", loc, r.ID)
	}
	var done JobResource
	if w := do(t, h, "GET", loc+"?wait=1", "", nil, &done); w.Code != http.StatusOK {
		t.Fatalf("poll: %d", w.Code)
	}
	if done.Status != StatusDone {
		t.Fatalf("status = %s (error %+v)", done.Status, done.Error)
	}
	if done.Tenant != "default" {
		t.Errorf("tenant = %q, want default", done.Tenant)
	}
}

// TestValidationErrors pins the client-error taxonomy: malformed JSON and
// unknown fields are invalid_body; a well-formed body with a bad name, or a
// value beyond its documented limit, is invalid_spec; a bad sweep section
// likewise. The limit rows would otherwise alias another spec's key or size
// gigabytes of per-processor allocations. A body over the size limit is 413
// body_too_large even when it is valid JSON.
func TestValidationErrors(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1})
	cases := []struct {
		path   string
		status int
		body   string
		code   string
	}{
		{"/v1/runs", 400, `{"workload": }`, "invalid_body"},
		{"/v1/runs", 400, `{"workload":"mp3d","no_such_knob":1}`, "invalid_body"},
		{"/v1/runs", 400, `{"workload":"mp3d","strategy":"WARP"}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","protocol":"mesif"}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"no-such-program"}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","mem_latency":4294967396}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","mem_latency":2147483698}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","distance":4294967546}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","victim_cache_lines":16777216}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","victim_cache_lines":-4294967288}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","cache_kb":4194304}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","cache_kb":4096,"line_bytes":64}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","interconnect":"multibus","buses":65}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"sections":["table9"]}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"prefetcher":"psychic"}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"transfers":[0]}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"mem_latency":4294967396}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"mem_latency":2147483698}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"interconnect":"directory","buses":100000}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","scale":1e9}`, "invalid_spec"},
		{"/v1/runs", 400, `{"workload":"mp3d","scale":-0.5}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"scale":1e9}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"scale":-1}`, "invalid_spec"},
		{"/v1/sweeps", 400, `{"scale":0.05,"transfers":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]}`, "invalid_spec"},
		{"/v1/runs", 413, strings.Repeat(" ", 2<<20) + `{"workload":"mp3d","scale":0.02}`, "body_too_large"},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", c.path, strings.NewReader(c.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != c.status {
			t.Errorf("%s %.80q: code %d, want %d", c.path, c.body, w.Code, c.status)
			continue
		}
		var resp struct {
			Error APIError `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Error.Code != c.code {
			t.Errorf("%s %.80q: error %+v (decode %v), want code %s", c.path, c.body, resp.Error, err, c.code)
		}
	}
}

// TestUnknownIDAndKindMismatch: missing ids are 404, and a run id is not
// addressable under /v1/sweeps (the registries are kind-checked).
func TestUnknownIDAndKindMismatch(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1})
	var r JobResource
	do(t, h, "POST", "/v1/runs?wait=1", "", tinyRun(), &r)
	for _, path := range []string{"/v1/runs/run-999", "/v1/sweeps/" + r.ID, "/v1/sweeps/" + r.ID + "/events"} {
		if w := do(t, h, "GET", path, "", nil, nil); w.Code != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", path, w.Code)
		}
	}
}

// blockingJob builds a job whose compute parks until release is closed —
// the deterministic way to fill queues and exercise drain.
func blockingJob(id, tenant string, release <-chan struct{}) *Job {
	return newJob(id, "run", tenant, json.RawMessage(`{}`), "key-"+id,
		func(ctx context.Context, j *Job) ([]byte, bool, error) {
			select {
			case <-release:
				return []byte(`{"ok":true}`), false, nil
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		})
}

// TestBackpressure pins the 429 contract: a tenant at its queue depth is
// rejected with queue_full and a Retry-After, while another tenant is still
// admitted (per-tenant isolation); capacity freed by a completing job is
// usable again.
func TestBackpressure(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	submit := func(id, tenant string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/runs", nil)
		j := blockingJob(id, tenant, release)
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.submit(w, r, j)
		return w
	}
	if w := submit("j1", "alice"); w.Code != http.StatusAccepted {
		t.Fatalf("j1: %d", w.Code)
	}
	if w := submit("j2", "alice"); w.Code != http.StatusAccepted {
		t.Fatalf("j2: %d", w.Code)
	}
	w := submit("j3", "alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("j3: code %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var resp struct {
		Error APIError `json:"error"`
	}
	if json.Unmarshal(w.Body.Bytes(), &resp) != nil || resp.Error.Code != "queue_full" {
		t.Errorf("429 body = %s, want queue_full", w.Body.String())
	}
	// Another tenant still has its own budget.
	if w := submit("j4", "bob"); w.Code != http.StatusAccepted {
		t.Errorf("bob's submit: code %d, want 202 despite alice's full queue", w.Code)
	}
	close(release)
	for _, id := range []string{"j1", "j2", "j4"} {
		j, _ := s.job(id, "run")
		<-j.Done()
	}
	// alice's queue drained; a new submission is admitted again.
	release2 := make(chan struct{})
	close(release2)
	w = submit("j5", "alice")
	if w.Code != http.StatusAccepted {
		t.Errorf("post-drain submit: code %d, want 202", w.Code)
	}
}

// TestEventStream reads a completed run's NDJSON feed and checks the
// lifecycle shape: contiguous seqs from 1, "queued" first, terminal "done"
// last.
func TestEventStream(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1})
	var r JobResource
	do(t, h, "POST", "/v1/runs?wait=1", "", tinyRun(), &r)

	req := httptest.NewRequest("GET", "/v1/runs/"+r.ID+"/events", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("events: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[0].Event != "queued" || events[len(events)-1].Event != "done" {
		t.Errorf("lifecycle = %q .. %q, want queued .. done", events[0].Event, events[len(events)-1].Event)
	}
}

// TestEventStreamFollowsLiveJob: a stream opened on a running job waits
// for each later event and ends after the terminal one, and a stream whose
// client goes away returns while the job runs on.
func TestEventStreamFollowsLiveJob(t *testing.T) {
	s, h := testServer(t, Options{Workers: 1})
	release := make(chan struct{})
	j := blockingJob("live", "alice", release)
	if _, err := s.admit(j); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return j.resource().Status == StatusRunning })
	parked := func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.next != nil
	}
	stream := func(ctx context.Context) (*httptest.ResponseRecorder, <-chan struct{}) {
		w, ended := httptest.NewRecorder(), make(chan struct{})
		go func() {
			defer close(ended)
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/runs/live/events", nil).WithContext(ctx))
		}()
		return w, ended
	}
	ended := func(c <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-c:
		case <-time.After(5 * time.Second):
			t.Fatalf("stream did not end %s", what)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	_, gone := stream(ctx)
	waitFor(t, parked)
	cancel()
	ended(gone, "when its client went away")

	j.progress(1, 2)
	w, done := stream(context.Background())
	waitFor(t, parked)
	j.progress(2, 2)
	close(release)
	ended(done, "after the job finished")
	var got []string
	for i, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Seq != i+1 {
			t.Fatalf("line %d %q: seq %d, err %v", i+1, line, e.Seq, err)
		}
		got = append(got, e.Event)
	}
	if want := "[queued started progress progress done]"; fmt.Sprint(got) != want {
		t.Errorf("live stream = %v, want %s", got, want)
	}
}

// TestIntrospectionEndpoints sanity-checks /v1/version, /v1/healthz,
// /v1/stats and /v1/meta shapes.
func TestIntrospectionEndpoints(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1, Shards: 3})
	var ver struct{ Version, Revision string }
	if w := do(t, h, "GET", "/v1/version", "", nil, &ver); w.Code != http.StatusOK || ver.Version == "" || ver.Revision == "" {
		t.Errorf("version: %d %+v", w.Code, ver)
	}
	var hz struct{ Status string }
	if w := do(t, h, "GET", "/v1/healthz", "", nil, &hz); w.Code != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz: %d %+v", w.Code, hz)
	}
	var meta struct {
		Workloads     []map[string]any `json:"workloads"`
		Strategies    []string         `json:"strategies"`
		Prefetchers   []string         `json:"prefetchers"`
		Protocols     []string         `json:"protocols"`
		Interconnects []string         `json:"interconnects"`
		Disciplines   []string         `json:"disciplines"`
		Sections      []string         `json:"sections"`
		Transfers     []int            `json:"transfers"`
		Shards        int              `json:"shards"`
	}
	do(t, h, "GET", "/v1/meta", "", nil, &meta)
	if len(meta.Workloads) != 5 || len(meta.Strategies) != 5 || len(meta.Sections) == 0 || meta.Shards != 3 {
		t.Errorf("meta = %+v", meta)
	}
	// Each enum listing names exactly its package's values, in order: fmt
	// renders a slice of values through their String methods.
	for _, c := range []struct {
		field string
		got   []string
		want  any
	}{
		{"prefetchers", meta.Prefetchers, prefetch.Kinds()},
		{"protocols", meta.Protocols, coherence.Kinds()},
		{"interconnects", meta.Interconnects, interconnect.Kinds()},
		{"disciplines", meta.Disciplines, bus.Disciplines()},
	} {
		if got, want := fmt.Sprint(c.got), fmt.Sprint(c.want); got != want {
			t.Errorf("meta %s = %s, want %s", c.field, got, want)
		}
	}
	var stats statsResponse
	do(t, h, "GET", "/v1/stats", "", nil, &stats)
	if stats.Queue.Depth == 0 {
		t.Errorf("stats = %+v, want a real queue depth", stats)
	}
}

// TestFailedJobCarriesClassifiedError: a run whose transfer cost exceeds
// its memory latency fails at compute time; the resource reports status
// failed with the runner.Classify taxonomy attached, and resubmission gets
// the memoized failure (still classified) without recomputation.
func TestFailedJobCarriesClassifiedError(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1})
	req := RunRequest{Workload: "mp3d", Transfer: 999, Scale: 0.02}
	var r JobResource
	if w := do(t, h, "POST", "/v1/runs?wait=1", "", req, &r); w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	if r.Status != StatusFailed || r.Error == nil {
		t.Fatalf("resource = %+v, want failed with error", r)
	}
	if r.Error.Code != "compute_failed" || r.Error.Class != "terminal" {
		t.Errorf("error = %+v, want terminal compute_failed", r.Error)
	}
	var again JobResource
	do(t, h, "POST", "/v1/runs?wait=1", "", req, &again)
	if again.Status != StatusFailed || again.Error == nil || again.Error.Class != "terminal" {
		t.Errorf("resubmitted failure = %+v, want the memoized terminal error", again)
	}
}

// TestRoundRobinFairness: with one worker and two tenants, a burst from one
// tenant does not starve the other — completion order alternates between
// tenants rather than finishing the burst first.
func TestRoundRobinFairness(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 1, QueueDepth: 16})
	var mu orderLog
	mk := func(id, tenant string) *Job {
		return newJob(id, "run", tenant, nil, id, func(ctx context.Context, j *Job) ([]byte, bool, error) {
			mu.append(tenant)
			return []byte("{}"), false, nil
		})
	}
	// Gate the worker with a blocker so the queues fill before any order is
	// observable.
	release := make(chan struct{})
	gate := blockingJob("gate", "zz-gate", release)
	if _, err := s.admit(gate); err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{
		mk("a1", "alice"), mk("a2", "alice"), mk("a3", "alice"),
		mk("b1", "bob"),
	}
	for _, j := range jobs {
		if _, err := s.admit(j); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for _, j := range jobs {
		<-j.Done()
	}
	order := mu.get()
	// bob's single job must not run last: round-robin interleaves it among
	// alice's three.
	if order[len(order)-1] == "bob" {
		t.Errorf("completion order %v starves bob", order)
	}
}

// orderLog is a tiny mutex-guarded string log.
type orderLog struct {
	mu  sync.Mutex
	log []string
}

func (s *orderLog) append(v string) {
	s.mu.Lock()
	s.log = append(s.log, v)
	s.mu.Unlock()
}

func (s *orderLog) get() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...)
}

// TestTerminalJobRetentionCap: the job registry does not grow without
// bound — past Options.JobRetention, the oldest-finished job resources are
// evicted (404), while newer ones stay addressable. The evicted results are
// still reproducible: resubmitting the spec hits the result store.
func TestTerminalJobRetentionCap(t *testing.T) {
	s, h := testServer(t, Options{Workers: 1, JobRetention: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		req := tinyRun()
		req.Seed = int64(i + 1) // distinct specs: three real computations
		var r JobResource
		if w := do(t, h, "POST", "/v1/runs?wait=1", "", req, &r); w.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body.String())
		}
		ids = append(ids, r.ID)
	}
	// A worker retires a job under the server lock as it completes it, so
	// the eviction is visible as soon as the last ?wait=1 answers.
	if w := do(t, h, "GET", "/v1/runs/"+ids[0], "", nil, nil); w.Code != http.StatusNotFound {
		t.Errorf("GET %s past the retention cap: %d, want 404", ids[0], w.Code)
	}
	for _, id := range ids[1:] {
		if w := do(t, h, "GET", "/v1/runs/"+id, "", nil, nil); w.Code != http.StatusOK {
			t.Errorf("GET %s after eviction of older job: %d, want 200", id, w.Code)
		}
	}
	// The evicted job's result is still one cache hit away.
	req := tinyRun()
	req.Seed = 1
	var again JobResource
	do(t, h, "POST", "/v1/runs?wait=1", "", req, &again)
	if again.Status != StatusDone || !again.Cached {
		t.Errorf("evicted spec resubmitted = status %s cached %v, want cached done", again.Status, again.Cached)
	}
	if st := s.results.Stats(); st.Misses != 3 || st.Hits != 1 {
		t.Errorf("result-store stats = %+v, want 3 misses + 1 hit", st)
	}
}

// TestDegradedSweepNotCached: a sweep whose cells run out of their
// timeout is tolerated — the report annotates the failures and
// the submitter gets it — but the degraded payload must not enter the
// result store, or the incomplete report would be served for that spec
// forever (even after a restart with a bigger -timeout). Resubmission
// recomputes instead of hitting.
func TestDegradedSweepNotCached(t *testing.T) {
	// A 1ns per-cell budget fails every cell retryably, instantly.
	s, h := testServer(t, Options{Workers: 1, Timeout: time.Nanosecond})
	req := SweepRequest{Scale: 0.02, Transfers: []int{8}, Sections: []string{"table2"}}
	var first JobResource
	if w := do(t, h, "POST", "/v1/sweeps?wait=1", "", req, &first); w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	if first.Status != StatusDone || first.Cached {
		t.Fatalf("first = status %s cached %v (error %+v), want uncached done", first.Status, first.Cached, first.Error)
	}
	var res SweepResult
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.FailedCells) == 0 {
		t.Fatal("budget of 1ns produced no failed cells; the test premise is broken")
	}

	var second JobResource
	do(t, h, "POST", "/v1/sweeps?wait=1", "", req, &second)
	if second.Status != StatusDone || second.Cached {
		t.Errorf("degraded sweep resubmitted = status %s cached %v, want a fresh recompute", second.Status, second.Cached)
	}
	if st := s.results.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("result-store stats = %+v, want 2 misses + 0 hits (degraded results evicted)", st)
	}
}
