// Command serve runs the streamalloc allocation daemon: an HTTP server
// exposing the solve pipeline (POST /v1/solve), stream-engine
// verification (POST /v1/verify), the distributed sweep coordinator
// (POST /v1/sweep and lease routes; see internal/coord and command
// sweepworker), liveness (GET /healthz) and counters (GET /statsz).
// Each request runs on its own HTTP goroutine; a solve or verify
// borrows one of -workers warmed arenas for its run. See
// internal/serve for the endpoint contracts and README "Server" for
// examples.
//
// Usage:
//
//	serve [-addr :8080] [-workers W] [-queue Q] [-timeout D] [-max-timeout D]
//	      [-max-ops N] [-sweep-lease-ttl D] [-coord-state-dir DIR] [-port-file PATH]
//
// The daemon stops accepting connections on SIGINT/SIGTERM, finishes
// every admitted request — running or waiting for an arena — and exits
// 0 — smoke tests assert exactly that. With -addr host:0 the kernel
// picks the port; -port-file publishes the bound address for scripts.
// With -coord-state-dir the sweep coordinator journals its job state
// there and recovers it on restart, so a killed daemon resumes its
// sweeps where they stopped (see internal/coord).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers    = flag.Int("workers", 0, "warmed solve arenas, so solve/verify requests run at once (0: one per CPU)")
		queue      = flag.Int("queue", 0, "admitted requests that may wait for an arena before 429 shedding (0: 4x workers)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 60*time.Second, "cap on every request deadline, -timeout included")
		maxOps     = flag.Int("max-ops", 2000, "largest accepted instance, in operators")
		sweepTTL   = flag.Duration("sweep-lease-ttl", 0, "default sweep shard lease deadline, rounded up to whole milliseconds (0: coordinator default 30s)")
		stateDir   = flag.String("coord-state-dir", "", "journal + snapshot sweep coordinator state here and recover it on restart (empty: in-memory only)")
		portFile   = flag.String("port-file", "", "write the bound listen address to this file once serving")
	)
	flag.Parse()

	if err := run(*addr, *portFile, serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxOps:         *maxOps,
		SweepLeaseTTL:  *sweepTTL,
		CoordStateDir:  *stateDir,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(addr, portFile string, cfg serve.Config) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	pool, err := serve.Open(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	httpSrv := &http.Server{
		Handler:           pool,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Shutdown waits for in-flight handlers; parked sweep claims answer
	// at once instead of sitting out their wait.
	httpSrv.RegisterOnShutdown(pool.StopParking)

	if portFile != "" {
		// Written after Listen succeeded, so a reader that sees the file
		// can connect immediately.
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			pool.Close()
			return fmt.Errorf("writing -port-file: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		pool.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "serve: draining (signal received)")

	// Stop accepting and wait for in-flight handlers, each running its
	// request or waiting for an arena; Close then waits out the arena
	// warmers and seals the sweep coordinator.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		pool.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	pool.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "serve: drained, exiting")
	return nil
}
