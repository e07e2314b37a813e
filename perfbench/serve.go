package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"busprefetch"
	"busprefetch/internal/runner"
	"busprefetch/internal/server"
)

const (
	serveRate    = 40 // requests per second, open loop
	serveTenants = 4  // X-Tenant values, round robin
	coldEvery    = 10 // one request in ten has a fresh seed
	coldChecked  = 4  // cold requests also computed directly in setup
	serveSetups  = 4  // setups before the timed phase, and again after it
	// genLagBound is the open-loop generator's allowed lateness; past it
	// the run is marked invalid, since requests no longer left on time.
	genLagBound = 50 * time.Millisecond
)

// request is one scheduled submission.
type request struct {
	due    time.Duration // from the start of the timed phase
	cold   bool
	tenant string
	key    int // index of the spec: into the mix when cached, into colds when cold
}

// service is a booted server behind a loopback HTTP listener, with the
// client that talks to it.
type service struct {
	dir    string
	cancel context.CancelFunc
	srv    *server.Server
	ts     *httptest.Server
	cli    *client
}

func bootService(dir string, workers int) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := server.New(ctx, server.Options{Workers: workers, Checkpoints: store})
	ts := httptest.NewServer(srv.Handler())
	cli := &client{base: ts.URL, http: &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64}}}
	return &service{dir: dir, cancel: cancel, srv: srv, ts: ts, cli: cli}, nil
}

// stop drains the server, closes the client and the listener, and removes
// the store.
func (s *service) stop() {
	s.cli.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // a blown drain deadline aborts the rest below
	s.cancel()
	s.ts.Close()
	_ = os.RemoveAll(s.dir)
}

// canonical re-encodes a run result's metrics so responses compare as
// values, whatever the server's indentation.
func canonical(raw json.RawMessage) ([]byte, error) {
	var res server.RunResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if res.Metrics == nil {
		return nil, fmt.Errorf("result has no metrics")
	}
	return json.Marshal(res.Metrics)
}

func body(spec busprefetch.RunSpec) []byte {
	b, _ := json.Marshal(server.RunRequest{Workload: spec.Workload, Strategy: spec.Strategy,
		Prefetcher: spec.Prefetcher, Transfer: spec.Transfer, Scale: spec.Scale, Seed: spec.Seed,
		Restructured: spec.Restructured, Protocol: spec.Protocol, VictimCacheLines: spec.VictimCacheLines,
		BufferPrefetch: spec.BufferPrefetch, Interconnect: spec.Interconnect, Buses: spec.Buses,
		Discipline: spec.Discipline})
	return b
}

// outcome is one request's result as the client saw it.
type outcome struct {
	status  int
	job     server.JobResource
	err     error
	admit   time.Duration // traced: POST until the 202
	started time.Duration // traced: 202 until the "started" event
	done    time.Duration // traced: "started" until the "done" event
}

type client struct {
	base string
	http *http.Client
}

// submitWait is the untraced request: POST /v1/runs?wait=1.
func (c *client) submitWait(tenant string, b []byte) outcome {
	req, _ := http.NewRequest("POST", c.base+"/v1/runs?wait=1", bytes.NewReader(b))
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	o.err = json.NewDecoder(resp.Body).Decode(&o.job)
	return o
}

// submitTraced submits without waiting, follows the job's event stream
// from the 202 to "started" and then "done", and fetches the job. Each
// step is a span under root, timed from the client's side.
func (c *client) submitTraced(rec *recorder, root int, id, tenant string, b []byte) outcome {
	sp := rec.begin("server.admit", id, root)
	req, _ := http.NewRequest("POST", c.base+"/v1/runs", bytes.NewReader(b))
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		rec.end(sp)
		return outcome{err: err}
	}
	o := outcome{status: resp.StatusCode}
	err = json.NewDecoder(resp.Body).Decode(&o.job)
	resp.Body.Close()
	o.admit = rec.end(sp)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		o.err = err
		return o
	}
	sp = rec.begin("server.queue_wait", id, root)
	ev, err := c.http.Get(c.base + "/v1/runs/" + o.job.ID + "/events")
	if err != nil {
		rec.end(sp)
		o.err = err
		return o
	}
	defer ev.Body.Close()
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() {
		var e server.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			o.err = err
			return o
		}
		switch e.Event {
		case "started":
			o.started = rec.end(sp)
			sp = rec.begin("server.service", id, root)
		case "done", "failed":
			o.done = rec.end(sp)
			sp = rec.begin("bench.fetch", id, root)
			defer rec.end(sp)
			got, err := c.http.Get(c.base + "/v1/runs/" + o.job.ID)
			if err != nil {
				o.err = err
				return o
			}
			defer got.Body.Close()
			o.status = got.StatusCode
			o.job = server.JobResource{}
			o.err = json.NewDecoder(got.Body).Decode(&o.job)
			return o
		}
	}
	o.err = fmt.Errorf("event stream ended early: %v", sc.Err())
	return o
}

// runServe boots the service with one worker and a disk tier, then runs
// an open loop at 40 requests/s from four tenants: 90% repeat specs
// submitted during setup (result-store hits), 10% use fresh seeds (cold:
// the full pipeline, then the disk write).
func runServe(ctx context.Context, r *run) error {
	if r.workers == 0 {
		r.workers = 1
	}
	mix := cellsMix(r.seed, r.scale)
	n := int(r.seconds.Seconds() * serveRate)
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x5e77e))
	// Every coldEvery-th request is cold (from a seeded offset), and each
	// class walks the mix round robin in a seeded order: every run asks
	// for the same blend of specs in the same rhythm, and only the order
	// and the seeds vary. Cold runs are spaced wider than their service
	// time, so cached requests queue behind a cold run, but cold runs do
	// not queue behind each other.
	reqs := make([]request, n)
	var colds []busprefetch.RunSpec
	perm, cachedN, coldAt := rng.Perm(len(mix)), 0, rng.IntN(coldEvery)
	for i := range reqs {
		reqs[i] = request{due: time.Duration(i) * time.Second / serveRate,
			tenant: fmt.Sprintf("tenant-%d", i%serveTenants)}
		if i%coldEvery == coldAt {
			spec := mix[perm[len(colds)%len(mix)]].spec
			spec.Seed = r.seed*1_000_003 + int64(len(colds)) + 1 // never a cached spec's seed
			reqs[i].cold, reqs[i].key = true, len(colds)
			colds = append(colds, spec)
		} else {
			reqs[i].key = perm[cachedN%len(mix)]
			cachedN++
		}
	}
	// The direct computation the first cold responses must match.
	direct := make([][]byte, min(coldChecked, len(colds)))
	for i := range direct {
		m, err := busprefetch.RunContext(ctx, colds[i])
		if err != nil {
			return err
		}
		direct[i], _ = json.Marshal(m)
	}

	// setUp boots the service, opens the store and submits every cached
	// spec once; it is one timed setup. Setups run before the timed phase,
	// keeping the last service, and again after it, so that setup_s, their
	// median, samples the host over the whole run and not just its start.
	want := make([][]byte, len(mix)) // first response per cached spec
	setUp := func() (*service, error) {
		start := time.Now()
		svc, err := bootService(filepath.Join(r.out, "serve-store"), r.workers)
		if err != nil {
			return nil, err
		}
		for i, c := range mix {
			o := svc.cli.submitWait("warmup", body(c.spec))
			if o.err != nil || o.status != http.StatusOK || o.job.Status != server.StatusDone {
				svc.stop()
				return nil, fmt.Errorf("warm-up %s: status %d, %v", c.label, o.status, o.err)
			}
			got, err := canonical(o.job.Result)
			if err != nil {
				svc.stop()
				return nil, fmt.Errorf("warm-up %s: %w", c.label, err)
			}
			if want[i] == nil {
				want[i] = got
			} else if !bytes.Equal(got, want[i]) {
				r.checkFailed("a warm-up of %s differs from the first", c.label)
			}
		}
		r.setups = append(r.setups, time.Since(start))
		return svc, nil
	}
	var svc *service
	for rep := 0; rep < serveSetups; rep++ {
		if svc != nil {
			svc.stop()
		}
		var err error
		if svc, err = setUp(); err != nil {
			return err
		}
	}
	cli := svc.cli
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()

	var (
		mu       sync.Mutex
		results  = make([]outcome, n)
		lats     = make([]time.Duration, n)
		wg       sync.WaitGroup
		worstLag time.Duration
	)
	start := time.Now()
	for i, q := range reqs {
		time.Sleep(time.Until(start.Add(q.due)))
		if lag := time.Since(start.Add(q.due)); lag > worstLag {
			worstLag = lag
		}
		var spec busprefetch.RunSpec
		if q.cold {
			spec = colds[q.key]
		} else {
			spec = mix[q.key].spec
		}
		wg.Add(1)
		go func(i int, tenant string, b []byte) {
			defer wg.Done()
			var o outcome
			if r.rec == nil {
				o = cli.submitWait(tenant, b)
			} else {
				id := fmt.Sprintf("req-%d", i)
				root := r.rec.begin("request", id, -1)
				o = cli.submitTraced(r.rec, root, id, tenant, b)
				r.rec.end(root)
			}
			lat := time.Since(start.Add(reqs[i].due))
			mu.Lock()
			results[i], lats[i] = o, lat
			mu.Unlock()
		}(i, q.tenant, body(spec))
	}
	wg.Wait()

	var rejected int
	var admit, qCached, qCold, svcCold []time.Duration
	for i, q := range reqs {
		o, class := results[i], "cached"
		if q.cold {
			class = "cold"
		}
		ok := o.err == nil && o.status == http.StatusOK && o.job.Status == server.StatusDone
		if !ok {
			if o.status == http.StatusTooManyRequests || o.status >= 500 {
				rejected++
			}
			r.checkFailed("request %d (%s): status %d %q, %v", i, class, o.status, o.job.Status, o.err)
		} else if got, err := canonical(o.job.Result); err != nil {
			ok = false
			r.checkFailed("request %d: %v", i, err)
		} else if q.cold && q.key < len(direct) && !bytes.Equal(got, direct[q.key]) {
			ok = false
			r.checkFailed("request %d: cold result differs from a direct RunContext", i)
		} else if !q.cold && (!bytes.Equal(got, want[q.key]) || !o.job.Cached) {
			ok = false
			r.checkFailed("request %d: repeat of %s is not the cached first response", i, mix[q.key].label)
		} else if q.cold && o.job.Cached {
			ok = false
			r.checkFailed("request %d: fresh spec served from the store", i)
		}
		r.record(op{class: class, lat: lats[i], ok: ok})
		if ok && r.rec != nil {
			admit = append(admit, o.admit)
			if q.cold {
				qCold, svcCold = append(qCold, o.started), append(svcCold, o.done)
			} else {
				qCached = append(qCached, o.started)
			}
		}
	}

	if worstLag > genLagBound {
		r.valid = false
	}
	cached, cold := latencies(r.ops, "cached"), latencies(r.ops, "cold")
	ct, ctName := tail(cached)
	kt, ktName := tail(cold)
	fmt.Fprintf(r.log, "serve: %d requests (%d cached, %d cold), %d rejected, generator at most %.2f ms late (bound %v, valid %t)\n",
		n, len(cached), len(cold), rejected, ms(worstLag), genLagBound, r.valid)
	fmt.Fprintf(r.log, "serve: cached p50 %.3f ms, %s %.3f ms; cold p50 %.3f ms, %s %.3f ms\n",
		ms(median(cached)), ctName, ms(ct), ms(median(cold)), ktName, ms(kt))

	if r.rec != nil {
		var st struct {
			Results     runner.ResultStats      `json:"results"`
			Checkpoints *runner.CheckpointStats `json:"checkpoints"`
		}
		resp, err := cli.http.Get(svc.ts.URL + "/v1/stats")
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reading /v1/stats: %w", err)
		}
		if total := st.Results.Hits + st.Results.Misses; total > 0 {
			r.set("runner.resultstore_hit_ratio", float64(st.Results.Hits)/float64(total), "ratio")
		}
		if st.Checkpoints != nil {
			r.set("runner.checkpoint_puts", float64(st.Checkpoints.Puts), "count")
		}
		qt, _ := tail(qCached)
		r.set("server.admit_ms", ms(median(admit)), "ms")
		r.set("server.queue_wait_ms.cached.p50", ms(median(qCached)), "ms")
		r.set("server.queue_wait_ms.cached.tail", ms(qt), "ms")
		r.set("server.queue_wait_ms.cold", ms(median(qCold)), "ms")
		r.set("server.service_ms.cold", ms(median(svcCold)), "ms")
		r.set("server.rejected", float64(rejected), "count")
		r.set("bench.gen_lag_ms", ms(worstLag), "ms")
	}

	// The setups after the timed phase; each service is stopped at once.
	svc.stop()
	svc = nil
	for rep := 0; rep < serveSetups; rep++ {
		s, err := setUp()
		if err != nil {
			return err
		}
		s.stop()
	}
	return nil
}
