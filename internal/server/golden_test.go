package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"busprefetch/internal/experiments"
	"busprefetch/internal/runner"
)

// TestSweepReportMatchesMkfigures is the service's equivalence golden: a
// sweep requested over HTTP must render byte-for-byte what cmd/mkfigures
// prints for the same configuration — the suite path (KeysFor → Prewarm →
// RenderSections, plus Fprintln's trailing newline) run directly here, the
// way mkfigures runs it. Then the same sweep resubmitted must come back
// from the result store, cached, with the identical bytes.
func TestSweepReportMatchesMkfigures(t *testing.T) {
	req := SweepRequest{Scale: 0.05, Seed: 1, Transfers: []int{8}, Sections: []string{"fig1"}}

	// The mkfigures path, inline: same config the server will build.
	plan, err := planSweep(req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewSuite(plan.cfg)
	if err := suite.Prewarm(context.Background(), suite.KeysFor(plan.want), nil); err != nil {
		t.Fatal(err)
	}
	text, err := suite.RenderSections(context.Background(), plan.want)
	if err != nil {
		t.Fatal(err)
	}
	wantReport := text + "\n" // mkfigures prints the report with Fprintln

	_, h := testServer(t, Options{Workers: 1})
	var r JobResource
	if w := do(t, h, "POST", "/v1/sweeps?wait=1", "", req, &r); w.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", w.Code, w.Body.String())
	}
	if r.Status != StatusDone {
		t.Fatalf("sweep %+v, want done", r)
	}
	var res SweepResult
	if err := json.Unmarshal(r.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Report != wantReport {
		t.Errorf("HTTP report diverges from the mkfigures path:\n--- HTTP ---\n%s\n--- mkfigures ---\n%s", res.Report, wantReport)
	}
	if res.Bench == nil || res.Bench.Schema != "busprefetch-bench/v1" {
		t.Errorf("bench report = %+v, want busprefetch-bench/v1", res.Bench)
	}

	// Resubmission: served from the store, byte-identical.
	var again JobResource
	do(t, h, "POST", "/v1/sweeps?wait=1", "other-tenant", req, &again)
	if !again.Cached {
		t.Error("resubmitted sweep was recomputed, want a store hit")
	}
	if !bytes.Equal(r.Result, again.Result) {
		t.Error("cached sweep bytes differ from the original computation")
	}
}

// TestSweepSectionCanonicalization: two requests naming the same sections in
// different order and case share one result-store key — the second is a
// cache hit.
func TestSweepSectionCanonicalization(t *testing.T) {
	s, h := testServer(t, Options{Workers: 1})
	a := SweepRequest{Scale: 0.05, Transfers: []int{8}, Sections: []string{"fig1", "fig3"}}
	b := SweepRequest{Scale: 0.05, Transfers: []int{8}, Sections: []string{"FIG3", "Fig1"}}
	var ra, rb JobResource
	do(t, h, "POST", "/v1/sweeps?wait=1", "", a, &ra)
	do(t, h, "POST", "/v1/sweeps?wait=1", "", b, &rb)
	if ra.Status != StatusDone || rb.Status != StatusDone {
		t.Fatalf("statuses %s / %s", ra.Status, rb.Status)
	}
	if !rb.Cached {
		t.Error("reordered section list missed the cache; keys are not canonical")
	}
	if !bytes.Equal(ra.Result, rb.Result) {
		t.Error("same sections, different bytes")
	}
	if st := s.results.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v, want a single compute", st)
	}
}

// TestSweepMetricsAttached: metrics=true runs the observability slice and
// attaches a busprefetch-metrics/v1 report — and keys separately from the
// same sweep without metrics.
func TestSweepMetricsAttached(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1})
	req := SweepRequest{Scale: 0.05, Transfers: []int{8}, Sections: []string{"fig1"}, Metrics: true}
	var r JobResource
	if w := do(t, h, "POST", "/v1/sweeps?wait=1", "", req, &r); w.Code != http.StatusOK || r.Status != StatusDone {
		t.Fatalf("sweep: %d %+v", w.Code, r)
	}
	var res SweepResult
	if err := json.Unmarshal(r.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.Metrics.Schema != "busprefetch-metrics/v1" || len(res.Metrics.Cells) == 0 {
		t.Errorf("metrics = %+v, want populated busprefetch-metrics/v1", res.Metrics)
	}
	// The metrics flag is part of the key: the metrics-less variant is a
	// distinct computation, not a hit on this one.
	plain := req
	plain.Metrics = false
	var rp JobResource
	do(t, h, "POST", "/v1/sweeps?wait=1", "", plain, &rp)
	if rp.Cached {
		t.Error("metrics=false hit the metrics=true entry; keys must differ")
	}
}

// TestSweepResultSurvivesRestart: with a durable store configured, a second
// server over the same directory (fresh process, fresh memory) serves the
// sweep from disk without recomputation.
func TestSweepResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() Options {
		store, err := runner.OpenCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return Options{Workers: 1, Checkpoints: store}
	}
	req := SweepRequest{Scale: 0.05, Transfers: []int{8}, Sections: []string{"fig1"}}

	_, h1 := testServer(t, open())
	var r1 JobResource
	do(t, h1, "POST", "/v1/sweeps?wait=1", "", req, &r1)
	if r1.Status != StatusDone || r1.Cached {
		t.Fatalf("first server: %+v", r1)
	}

	s2, h2 := testServer(t, open())
	var r2 JobResource
	do(t, h2, "POST", "/v1/sweeps?wait=1", "", req, &r2)
	if r2.Status != StatusDone || !r2.Cached {
		t.Fatalf("restarted server: %+v, want a disk hit", r2)
	}
	if !bytes.Equal(r1.Result, r2.Result) {
		t.Error("result changed across restart")
	}
	if st := s2.results.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want the hit attributed to disk", st)
	}
}
