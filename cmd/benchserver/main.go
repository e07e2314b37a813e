// Command benchserver serves the experiment suite over HTTP: an always-on
// service accepting single simulations (POST /v1/runs) and whole sweep grids
// (POST /v1/sweeps), scheduling them onto bounded workers with per-tenant
// queue backpressure, and fronting every computation with a
// content-addressed result store keyed by (canonical spec, build revision) —
// a spec resubmitted by any client is served from cache, byte-identical,
// without recomputation. Sweeps render through the same suite path as
// mkfigures, so a report fetched over HTTP matches mkfigures stdout exactly.
//
// Usage:
//
//	benchserver                           # listen on :8080, in-memory cache
//	benchserver -addr localhost:9090      # another address
//	benchserver -store /var/lib/bench     # durable result + checkpoint store
//	benchserver -workers 4 -shards 8      # 4 concurrent jobs, 8-way sweeps
//	benchserver -queue 16                 # deeper per-tenant queues
//
// Then, from any client:
//
//	curl -s localhost:8080/v1/sweeps?wait=1 -d '{"scale":0.1,"sections":["table2"]}'
//
// On SIGINT/SIGTERM the server drains: new submissions get 503, in-flight
// jobs finish (bounded by -drain-timeout, after which they are aborted
// through their contexts), then the process exits. See docs/API.md for the
// full endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"busprefetch/internal/buildinfo"
	"busprefetch/internal/runner"
	"busprefetch/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "benchserver:", err)
		}
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens connections and trickles bytes
// cannot pin a server goroutine and a file descriptor per connection
// indefinitely. Bodies are bounded separately, at 1 MiB, by internal/server.
const readHeaderTimeout = 5 * time.Second

// run is the whole command behind flag parsing; every failure comes back as
// an error and turns into one diagnostic line and a non-zero exit. It
// returns nil on a clean drain after ctx is cancelled.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchserver", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 2, "concurrent jobs (runs or whole sweeps)")
		shards       = fs.Int("shards", 0, "per-sweep cell parallelism (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 8, "per-tenant queue depth (queued + running); beyond it submissions get 429")
		store        = fs.String("store", "", "durable store directory: results and sweep cells persist here across restarts (empty = in-memory only)")
		timeout      = fs.Duration("timeout", 0, "per-sweep-cell wall-clock budget (0 = none)")
		retain       = fs.Int("retain", 512, "finished job resources kept addressable; older ones are evicted (results stay in the result store)")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs before aborting them")
		version      = fs.Bool("version", false, "print version and exit")
		quiet        = fs.Bool("q", false, "suppress per-job log output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("benchserver"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}
	if *queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", *queue)
	}
	if *drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *retain <= 0 {
		return fmt.Errorf("-retain must be positive, got %d", *retain)
	}

	opts := server.Options{
		Workers:      *workers,
		Shards:       *shards,
		QueueDepth:   *queue,
		Timeout:      *timeout,
		JobRetention: *retain,
	}
	if !*quiet {
		opts.Logf = log.New(os.Stderr, "benchserver: ", log.LstdFlags).Printf
	}
	if *store != "" {
		cs, err := runner.OpenCheckpointStore(*store)
		if err != nil {
			return err
		}
		opts.Checkpoints = cs
	}

	// jobCtx outlives ctx: a signal starts the drain rather than killing
	// running jobs; only a blown drain deadline cancels them.
	jobCtx, abortJobs := context.WithCancel(context.Background())
	defer abortJobs()
	srv := server.New(jobCtx, opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	fmt.Fprintf(stdout, "benchserver: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain accepted work within the deadline, abort
	// whatever remains through the job context, then close the listener.
	if !*quiet {
		fmt.Fprintf(os.Stderr, "benchserver: draining (up to %v)...\n", *drainTimeout)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "benchserver: drain deadline hit; aborting in-flight jobs")
		}
		abortJobs()
		if err := srv.Drain(context.Background()); err != nil {
			return err
		}
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "benchserver: drained, exiting")
	}
	return nil
}
