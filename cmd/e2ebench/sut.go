package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/serve"
)

// sut is one running system under test: the allocation daemon plus,
// for sweeps, its sweepworkers.
type sut struct {
	url string
	// serverPID and workerPIDs are the processes whose CPU time and
	// peak RSS are read from /proc; empty for an in-process system.
	serverPID  int
	workerPIDs []int
	stop       func() error
}

// launcher starts systems under test. procLauncher runs the real
// binaries; inprocLauncher (tests) mounts the same server in-process.
type launcher interface {
	// start boots a daemon, with stateDir as its durable coordinator
	// directory when non-empty, plus sweepWorkers sweep workers.
	start(ctx context.Context, stateDir string, sweepWorkers int) (*sut, error)
	// inProcess reports whether process metrics are unavailable.
	inProcess() bool
}

// buildBinaries compiles cmd/serve and cmd/sweepworker from the
// repository at src into bin, before anything is timed.
func buildBinaries(src, bin string) (serveBin, workerBin string, err error) {
	serveBin = filepath.Join(bin, "serve")
	workerBin = filepath.Join(bin, "sweepworker")
	for _, b := range []struct{ out, pkg string }{{serveBin, "./cmd/serve"}, {workerBin, "./cmd/sweepworker"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = src
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return "", "", fmt.Errorf("building %s: %w", b.pkg, err)
		}
	}
	return serveBin, workerBin, nil
}

// procLauncher runs cmd/serve with two solve workers and cmd/sweepworker
// processes pinned to one CPU each, all on loopback.
type procLauncher struct {
	serveBin, workerBin string
	tmp                 string // scratch root for port files and state dirs
	seq                 int
}

func (l *procLauncher) inProcess() bool { return false }

func (l *procLauncher) start(ctx context.Context, stateDir string, sweepWorkers int) (*sut, error) {
	l.seq++
	portFile := filepath.Join(l.tmp, fmt.Sprintf("port-%d-%d", os.Getpid(), l.seq))
	os.Remove(portFile)
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2", "-port-file", portFile}
	if stateDir != "" {
		args = append(args, "-coord-state-dir", stateDir)
	}
	var stderr bytes.Buffer
	srv := exec.Command(l.serveBin, args...)
	srv.Stderr = &stderr
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("starting serve: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	procs := []*exec.Cmd{srv}
	waits := []chan error{exited}
	// stop is idempotent: workloads stop the system explicitly and also
	// defer a stop for their error paths.
	var (
		once    sync.Once
		stopErr error
	)
	stop := func() error {
		once.Do(func() {
			var errs []error
			// Workers first, then the daemon, so no worker sees it vanish.
			for i := len(procs) - 1; i >= 0; i-- {
				errs = append(errs, terminate(procs[i], waits[i]))
			}
			os.Remove(portFile)
			stopErr = errors.Join(errs...)
		})
		return stopErr
	}

	addr, err := waitPortFile(ctx, portFile, exited)
	if err == nil {
		err = waitHealthy(ctx, "http://"+addr)
	}
	if err != nil {
		stop()
		return nil, fmt.Errorf("serve did not become healthy: %w (stderr: %s)", err, strings.TrimSpace(stderr.String()))
	}
	s := &sut{url: "http://" + addr, serverPID: srv.Process.Pid}
	for w := 0; w < sweepWorkers; w++ {
		wk := exec.Command(l.workerBin, "-coord", s.url, "-name", fmt.Sprintf("w%d", w), "-workers", "1", "-poll", "5ms")
		wk.Env = append(os.Environ(), "GOMAXPROCS=1")
		if err := wk.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("starting sweepworker: %w", err)
		}
		done := make(chan error, 1)
		go func() { done <- wk.Wait() }()
		procs = append(procs, wk)
		waits = append(waits, done)
		s.workerPIDs = append(s.workerPIDs, wk.Process.Pid)
	}
	s.stop = stop
	return s, nil
}

// terminate asks a process to drain with SIGTERM, escalating to SIGKILL
// after 10s, and returns once it has exited. A process stopped before it
// installed its signal handler dies of the SIGTERM itself; that is a
// clean stop too.
func terminate(cmd *exec.Cmd, exited chan error) error {
	_ = cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-exited:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		return fmt.Errorf("%s did not drain within 10s", filepath.Base(cmd.Path))
	}
}

// waitPortFile polls for the daemon's -port-file, which it writes once
// its listener is bound. The poll is fine-grained because the whole
// set-up takes only a few milliseconds.
func waitPortFile(ctx context.Context, path string, exited chan error) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case err := <-exited:
			return "", fmt.Errorf("daemon exited: %v", err)
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return "", fmt.Errorf("no port file after 30s")
}

// healthClient never reuses connections, so readiness probes cannot be
// answered by a stale keep-alive.
var healthClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}

// waitHealthy polls GET /healthz every millisecond until it answers 200.
func waitHealthy(ctx context.Context, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		resp, err := healthClient.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		last = err
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("healthz: %v", last)
}

// inprocLauncher mounts serve.Open behind an httptest listener and runs
// sweep workers as goroutines; the test smoke uses it.
type inprocLauncher struct{}

func (inprocLauncher) inProcess() bool { return true }

func (inprocLauncher) start(ctx context.Context, stateDir string, sweepWorkers int) (*sut, error) {
	pool, err := serve.Open(serve.Config{Workers: 2, CoordStateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(pool)
	if err := waitHealthy(ctx, ts.URL); err != nil {
		ts.Close()
		pool.Close()
		return nil, err
	}
	s := &sut{url: ts.URL}
	wctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			coord.RunWorker(wctx, coord.NewClient(ts.URL), coord.WorkerOptions{
				Name: fmt.Sprintf("w%d", w), Workers: 1, Poll: 5 * time.Millisecond,
			})
		}(w)
	}
	var once sync.Once
	s.stop = func() error {
		once.Do(func() {
			cancel()
			wg.Wait()
			ts.Close()
			pool.Close()
		})
		return nil
	}
	return s, nil
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// statsz is the subset of the daemon's GET /statsz document the
// benchmark reads.
type statsz struct {
	SolveRequests  int64 `json:"solve_requests"`
	VerifyRequests int64 `json:"verify_requests"`
	ServerErrors   int64 `json:"server_errors"`
	Rejected429    int64 `json:"rejected_429"`
	Timeouts       int64 `json:"timeouts"`
	PerWorker      []struct {
		Jobs   int64 `json:"jobs"`
		Solves int64 `json:"solves"`
	} `json:"per_worker"`
	Sweep coord.SweepStats `json:"sweep"`
}

func fetchStatsz(ctx context.Context, c *http.Client, url string) (*statsz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /statsz: status %d", resp.StatusCode)
	}
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &st, nil
}
