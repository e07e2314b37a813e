package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestVersionFlag: -version prints the stamped identity and exits clean.
func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "benchserver ") {
		t.Errorf("-version printed %q", out.String())
	}
}

// TestFlagValidation: bad flag values fail before binding a socket.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-drain-timeout", "0s"},
		{"positional"},
		{"-no-such-flag"},
	} {
		if err := run(context.Background(), args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// startServer boots run on an ephemeral port and returns the bound address
// and a stop function that cancels the context and requires a clean drain
// — the SIGINT path end to end.
func startServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	pr, pw := newPipeWriter()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-q"}, pw)
	}()

	// The startup line names the bound address.
	line, err := pr.line(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "benchserver: listening on http://")
	if !ok {
		t.Fatalf("startup line %q", line)
	}
	return addr, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run exited with %v, want clean drain", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not exit after cancellation")
		}
	}
}

// TestServeAndGracefulExit boots the server on an ephemeral port, exercises
// a real request over TCP, then cancels the context and expects a clean
// drain — the SIGINT path end to end.
func TestServeAndGracefulExit(t *testing.T) {
	addr, stop := startServer(t)
	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct{ Status string }
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hz)
	}
	stop()
}

// TestSlowHeadersDisconnected: a client that never finishes its request
// headers is disconnected once readHeaderTimeout passes, instead of holding
// a connection and a server goroutine open for as long as it likes.
func TestSlowHeadersDisconnected(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: bench\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns nil once the server closes the connection, and the
	// deadline's timeout error if it never does.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with unfinished headers still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
}

// pipeWriter adapts a line-buffered channel to io.Writer for capturing the
// startup message without racing the server goroutine.
type pipeWriter struct{ ch chan string }

func newPipeWriter() (*pipeWriter, *pipeWriter) {
	p := &pipeWriter{ch: make(chan string, 8)}
	return p, p
}

func (p *pipeWriter) Write(b []byte) (int, error) {
	p.ch <- string(b)
	return len(b), nil
}

func (p *pipeWriter) line(timeout time.Duration) (string, error) {
	select {
	case s := <-p.ch:
		return s, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("no output within %v", timeout)
	}
}
