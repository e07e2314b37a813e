package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// postWithin submits body to path and fails the test unless the handler
// answers within a few seconds. With the only worker held, a submission
// under ?wait=1 can answer that fast only if it is answered at admission.
func postWithin(t *testing.T, h http.Handler, path, tenant string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := httptest.NewRequest("POST", path, bytes.NewReader(b)).WithContext(ctx)
	req.Header.Set("X-Tenant", tenant)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if ctx.Err() != nil {
		t.Fatalf("POST %s was not answered while the worker was busy", path)
	}
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("POST %s: body %q does not decode: %v", path, w.Body.String(), err)
	}
	return w
}

// eventNames reads a terminal job's NDJSON feed and returns its event
// names in order.
func eventNames(t *testing.T, h http.Handler, path string) []string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	var names []string
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("%s: line %q: %v", path, sc.Text(), err)
		}
		if e.Seq != len(names)+1 {
			t.Errorf("%s: event %q has seq %d, want %d", path, e.Event, e.Seq, len(names)+1)
		}
		names = append(names, e.Event)
	}
	return names
}

// TestCachedSubmissionsAnsweredAtAdmission: with the one worker held by a
// blocking job, a resubmitted run, a resubmitted sweep and a resubmitted
// memoized failure are each answered before the blocker is released. Each
// carries the stored outcome and the events a worker would have emitted,
// and each counts as a result-store hit. The hits come from the blocker's
// own tenant, already at its queue depth, so they do not count against it;
// a draining server still refuses them.
func TestCachedSubmissionsAnsweredAtAdmission(t *testing.T) {
	s, h := testServer(t, Options{Workers: 1, QueueDepth: 1})
	cases := []struct {
		path   string
		body   any
		status string
		events []string
	}{
		{"/v1/runs", tinyRun(), StatusDone, []string{"queued", "started", "cached", "done"}},
		{"/v1/sweeps", SweepRequest{Scale: 0.02, Sections: []string{"table1"}},
			StatusDone, []string{"queued", "started", "cached", "done"}},
		{"/v1/runs", RunRequest{Workload: "mp3d", Transfer: 999, Scale: 0.02},
			StatusFailed, []string{"queued", "started", "failed"}},
	}
	// The first submissions compute, each from its own tenant so that none
	// races the previous one's release of its queue slot.
	first := make([]JobResource, len(cases))
	for i, c := range cases {
		w := do(t, h, "POST", c.path+"?wait=1", fmt.Sprintf("warm-%d", i), c.body, &first[i])
		if w.Code != http.StatusOK || first[i].Status != c.status || first[i].Cached {
			t.Fatalf("first %s: %d %+v, want an uncached %s", c.path, w.Code, first[i], c.status)
		}
	}
	before := s.results.Stats()

	release := make(chan struct{})
	blocker := blockingJob("blocker", "alice", release)
	bw := httptest.NewRecorder()
	s.submit(bw, httptest.NewRequest("POST", "/v1/runs", nil), blocker)
	if bw.Code != http.StatusAccepted {
		t.Fatalf("blocker: %d, want 202", bw.Code)
	}
	waitFor(t, func() bool { return blocker.resource().Status == StatusRunning })
	// The premise: alice is at her queue depth, so a cold run is refused.
	cold := tinyRun()
	cold.Seed = 2
	if w := do(t, h, "POST", "/v1/runs", "alice", cold, nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("cold submission at full depth: %d, want 429", w.Code)
	}

	for i, c := range cases {
		var again JobResource
		if w := postWithin(t, h, c.path+"?wait=1", "alice", c.body, &again); w.Code != http.StatusOK {
			t.Fatalf("resubmitted %s: %d %s", c.path, w.Code, w.Body.String())
		}
		if again.Status != c.status || again.Cached != (c.status == StatusDone) {
			t.Errorf("resubmitted %s = status %s cached %v, want %s served from the store",
				c.path, again.Status, again.Cached, c.status)
		}
		if !bytes.Equal(again.Result, first[i].Result) {
			t.Errorf("resubmitted %s result differs from the stored one:\n%s\nvs\n%s", c.path, again.Result, first[i].Result)
		}
		if c.status == StatusFailed && (again.Error == nil || *again.Error != *first[i].Error || again.Error.Class != "terminal") {
			t.Errorf("resubmitted failure carries %+v, want the memoized %+v", again.Error, first[i].Error)
		}
		got := fmt.Sprint(eventNames(t, h, c.path+"/"+again.ID+"/events"))
		if want := fmt.Sprint(c.events); got != want {
			t.Errorf("resubmitted %s events = %s, want %s", c.path, got, want)
		}
	}

	// Without ?wait=1 a hit answers 202 with its Location, already done.
	var async JobResource
	w := postWithin(t, h, "/v1/runs", "alice", tinyRun(), &async)
	if w.Code != http.StatusAccepted || w.Header().Get("Location") != "/v1/runs/"+async.ID ||
		async.Status != StatusDone || !async.Cached {
		t.Errorf("async hit: %d Location %q status %s cached %v, want 202 done and cached",
			w.Code, w.Header().Get("Location"), async.Status, async.Cached)
	}
	if st := blocker.resource().Status; st != StatusRunning {
		t.Fatalf("blocker is %s, want it still holding the worker", st)
	}

	var stats statsResponse
	do(t, h, "GET", "/v1/stats", "", nil, &stats)
	if hits := len(cases) + 1; stats.Results.Hits != before.Hits+uint64(hits) || stats.Results.Misses != before.Misses {
		t.Errorf("stats = %+v after %d hits, was %+v", stats.Results, hits, before)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, func() bool { return s.sched.stats().Draining })
	if w := do(t, h, "POST", "/v1/runs?wait=1", "alice", tinyRun(), nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("hit while draining: %d, want 503", w.Code)
	}
	if st := s.results.Stats(); st.Hits != stats.Results.Hits {
		t.Errorf("a refused submission counted a hit: %+v", st)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
