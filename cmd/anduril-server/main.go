// Command anduril-server runs the reproduction daemon: an HTTP service
// that accepts reproduction jobs, journals them durably, starts them in
// admission order on -workers workers, and survives kill -9 without
// losing a job or changing a result (see internal/server).
//
//	anduril-server -data-dir /var/lib/anduril [-addr :8477] [-workers 4]
//
// The daemon drains gracefully on SIGINT/SIGTERM: submissions are
// rejected, running searches are interrupted, and the process exits once
// every worker has stopped. A subsequent start with the same -data-dir
// re-admits every unfinished job and runs it again from its spec. A job
// whose execution fails is final: its record says failed and why, and
// removing <data-dir>/jobs/<key> before resubmitting runs it again.
//
// Exit codes: 0 clean shutdown after a signal; 1 fatal runtime error
// (journal unreadable, listen failure); 2 flag or validation error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anduril/internal/server"
)

// Exit codes, mirroring the anduril CLI's discipline of separating
// usage mistakes (2) from runtime failures (1).
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

// flagConfig is the parsed flag set, kept separate from server.Config so
// validation is a pure, table-testable function.
type flagConfig struct {
	addr    string
	dataDir string
	workers int
	queue   int
}

// validate rejects flag combinations the server cannot run with. Every
// rejection is a usage error (exit 2), reported before any state is
// touched.
func (c flagConfig) validate() error {
	if c.dataDir == "" {
		return fmt.Errorf("-data-dir is required (the daemon's durable job journal lives there)")
	}
	if c.addr == "" {
		return fmt.Errorf("-addr must name a listen address")
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = one per CPU), got %d", c.workers)
	}
	if c.queue <= 0 {
		return fmt.Errorf("-queue must be a positive queued-job cap, got %d", c.queue)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is main minus the process boundary: parse, validate, serve until
// stop (nil = OS signals) fires, drain, exit code. Tests drive it with
// their own stop channel.
func run(args []string, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("anduril-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c flagConfig
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8477", "listen address")
	fs.StringVar(&c.dataDir, "data-dir", "", "state directory for the durable job journal (required)")
	fs.IntVar(&c.workers, "workers", 0, "concurrent job executions (0 = one per CPU)")
	fs.IntVar(&c.queue, "queue", 256, "queued-job cap; beyond it submissions shed with 429")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "anduril-server: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}
	if err := c.validate(); err != nil {
		fmt.Fprintf(stderr, "anduril-server: %v\n", err)
		return exitUsage
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	srv, err := server.Open(server.Config{
		DataDir:  c.dataDir,
		Workers:  c.workers,
		QueueCap: c.queue,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "anduril-server: %v\n", err)
		return exitRuntime
	}
	defer srv.Shutdown()

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fmt.Fprintf(stderr, "anduril-server: %v\n", err)
		return exitRuntime
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logf("anduril-server: serving on %s (journal: %s)", ln.Addr(), c.dataDir)

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case <-sig:
		case err := <-serveErr:
			fmt.Fprintf(stderr, "anduril-server: %v\n", err)
			return exitRuntime
		}
	} else {
		select {
		case <-stop:
		case err := <-serveErr:
			fmt.Fprintf(stderr, "anduril-server: %v\n", err)
			return exitRuntime
		}
	}

	// Drain: stop accepting HTTP first, then interrupt the running jobs.
	logf("anduril-server: draining")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "anduril-server: http shutdown: %v\n", err)
	}
	srv.Shutdown()
	logf("anduril-server: drained cleanly")
	return exitOK
}
