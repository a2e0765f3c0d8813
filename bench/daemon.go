package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"anduril/internal/server"
)

// workspace is the scratch directory of one run, inside the checkout
// (so it sits on the checkout's real filesystem, as a deployment's data
// directory would) and the set of daemons the run has started. close
// undoes both on every exit path.
type workspace struct {
	dir string

	mu      sync.Mutex
	daemons []*daemon
	bin     string
}

func newWorkspace() (*workspace, error) {
	base := filepath.Join(repoRoot(), ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &workspace{dir: dir}, nil
}

// close kills whatever daemon is still running, waits for it, and removes
// the scratch directory (data dirs, logs and a self-built daemon binary).
func (ws *workspace) close() {
	ws.mu.Lock()
	daemons := ws.daemons
	ws.daemons = nil
	ws.mu.Unlock()
	for _, d := range daemons {
		d.kill()
	}
	os.RemoveAll(ws.dir)
}

// serverBinary returns the daemon binary: the one bench/run.sh built, or
// — when the benchmark was started some other way — one built now into
// the workspace and removed with it.
func (ws *workspace) serverBinary() (string, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.bin != "" {
		return ws.bin, nil
	}
	if bin := os.Getenv("ANDURIL_BENCH_SERVER"); bin != "" {
		ws.bin = bin
		return bin, nil
	}
	bin := filepath.Join(ws.dir, "anduril-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/anduril-server")
	cmd.Dir = repoRoot()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build anduril-server: %v\n%s", err, out)
	}
	ws.bin = bin
	return bin, nil
}

// childEnv is the environment of every process the benchmark starts:
// the caller's, minus the analysis disk cache, which would turn the
// set-up being measured into a file read.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "ANDURIL_CACHE_DIR=") {
			env = append(env, kv)
		}
	}
	return env
}

// daemon is one live anduril-server subprocess.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	logPath string
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

// startDaemon launches the server on a free port with a fresh data dir
// and waits until /readyz answers 200. On failure it returns the daemon's
// own log with the error.
func (ws *workspace) startDaemon() (*daemon, error) {
	bin, err := ws.serverBinary()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	dataDir, err := os.MkdirTemp(ws.dir, "data-")
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, dataDir: dataDir, logPath: dataDir + ".log", exited: make(chan struct{})}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	d.cmd = exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-workers", strconv.Itoa(nproc()))
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	d.cmd.Env = childEnv()
	d.cmd.SysProcAttr = childProcAttr()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	ws.mu.Lock()
	ws.daemons = append(ws.daemons, d)
	ws.mu.Unlock()

	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("anduril-server exited before it was ready: %v\n%s", d.waitErr, d.log())
		default:
		}
		if resp, err := hc.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("anduril-server not ready within 10s\n%s", d.log())
}

func (d *daemon) log() string {
	raw, _ := os.ReadFile(d.logPath) // best effort: the log only decorates an error
	return "--- daemon log ---\n" + string(raw)
}

// stop drains the daemon with SIGTERM; anything but exit code 0 within
// 20 s is an error.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("anduril-server died during the run: %v\n%s", d.waitErr, d.log())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("anduril-server drain: %v\n%s", d.waitErr, d.log())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("anduril-server did not drain within 20s\n%s", d.log())
	}
}

func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// journalBytes sums the files under the daemon's job journal.
func (d *daemon) journalBytes() (int64, error) {
	var total int64
	err := filepath.Walk(filepath.Join(d.dataDir, "jobs"), func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// jobDirs counts the job directories of the journal.
func (d *daemon) jobDirs() (int, error) {
	entries, err := os.ReadDir(filepath.Join(d.dataDir, "jobs"))
	return len(entries), err
}

// client is one closed-loop user of the daemon: one keep-alive connection,
// the next request only after the previous answer.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// job is one op against the daemon: submit, wait for the terminal state
// (skipped when the submission deduplicates onto a finished job), fetch
// the report.
type job struct {
	spec   server.Spec
	start  time.Time
	submit time.Duration // POST /jobs
	wait   time.Duration // 202 until a poll sees a terminal state
	report time.Duration // GET /jobs/{key}/report
	total  time.Duration // clocked around all three
	polls  int
	shed   bool // the daemon answered 429

	rec       server.Job // the terminal record
	reportRaw []byte
	err       error
}

// pollEvery is the fixed interval between GET /jobs/{key} polls.
const pollEvery = time.Millisecond

var errShed = errors.New("shed with 429")

// runJob performs one op. wantDedupe says which answer is correct: a
// never-seen spec must be accepted (202), a completed one must come back
// 200 with deduped true and its terminal record.
func (c *client) runJob(ctx context.Context, spec server.Spec, wantDedupe bool) *job {
	j := &job{spec: spec, start: time.Now()}
	body, _ := json.Marshal(spec) // plain data: cannot fail
	defer func() { j.total = time.Since(j.start) }()

	status, raw, err := c.do(ctx, http.MethodPost, "/jobs", body)
	j.submit = time.Since(j.start)
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	var sub struct {
		Job     server.Job `json:"job"`
		Deduped bool       `json:"deduped"`
	}
	switch {
	case status == http.StatusTooManyRequests:
		j.shed, j.err = true, errShed
		return j
	case wantDedupe && status != http.StatusOK, !wantDedupe && status != http.StatusAccepted:
		j.err = fmt.Errorf("submit: status %d: %s", status, raw)
		return j
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		j.err = fmt.Errorf("submit: decode: %w", err)
		return j
	}
	if sub.Deduped != wantDedupe {
		j.err = fmt.Errorf("submit: deduped=%v, want %v", sub.Deduped, wantDedupe)
		return j
	}
	j.rec = sub.Job

	waitStart := time.Now()
	for !j.rec.Terminal() {
		if wantDedupe {
			j.err = fmt.Errorf("deduped onto a %s job, want a finished one", j.rec.State)
			return j
		}
		time.Sleep(pollEvery)
		status, raw, err := c.do(ctx, http.MethodGet, "/jobs/"+j.rec.Key, nil)
		j.polls++
		if err != nil || status != http.StatusOK {
			j.err = fmt.Errorf("poll: status %d: %v", status, err)
			return j
		}
		if err := json.Unmarshal(raw, &j.rec); err != nil {
			j.err = fmt.Errorf("poll: decode: %w", err)
			return j
		}
	}
	j.wait = time.Since(waitStart)
	if j.rec.State != server.StateDone || !j.rec.Reproduced {
		j.err = fmt.Errorf("job ended %s reproduced=%v: %s", j.rec.State, j.rec.Reproduced, j.rec.Error)
		return j
	}

	reportStart := time.Now()
	status, j.reportRaw, err = c.do(ctx, http.MethodGet, "/jobs/"+j.rec.Key+"/report", nil)
	j.report = time.Since(reportStart)
	if err != nil || status != http.StatusOK {
		j.err = fmt.Errorf("report: status %d: %v", status, err)
	}
	return j
}

// count folds finished ops into the correctness gate.
func (t *tally) count(jobs []*job) {
	for _, j := range jobs {
		t.attempted++
		if j.err != nil {
			t.fail("%s seed %d: %v", j.spec.Failure, j.spec.Seed, j.err)
		}
	}
}

// record writes the client-side spans of one job; they are contiguous, so
// their durations sum to the op's.
func (j *job) record(rec *recorder) {
	if rec == nil {
		return
	}
	op := rec.add(span{Name: "op.job", Start: j.start, Dur: j.total,
		Attrs: map[string]any{"failure": j.spec.Failure, "seed": j.spec.Seed, "key": j.rec.Key, "rounds": j.rec.Rounds}})
	at := j.start
	rec.add(span{Parent: op, Op: op, Name: "http.submit", Start: at, Dur: j.submit})
	at = at.Add(j.submit)
	if j.wait > 0 {
		rec.add(span{Parent: op, Op: op, Name: "server.exec_wait", Start: at, Dur: j.wait,
			Attrs: map[string]any{"polls": j.polls}})
		at = at.Add(j.wait)
	}
	rec.add(span{Parent: op, Op: op, Name: "http.report", Start: at, Dur: j.report})
}

// drive runs a closed loop of nproc clients against d. Each client asks
// next for its next spec and stops when next says so or ctx ends.
func drive(ctx context.Context, d *daemon, next func(client int) (server.Spec, bool), wantDedupe bool, rec *recorder) []*job {
	n := nproc()
	perClient := make([][]*job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(d.base)
			defer c.hc.CloseIdleConnections()
			for ctx.Err() == nil {
				spec, ok := next(i)
				if !ok {
					return
				}
				j := c.runJob(ctx, spec, wantDedupe)
				j.record(rec)
				perClient[i] = append(perClient[i], j)
			}
		}(i)
	}
	wg.Wait()
	var all []*job
	for _, js := range perClient {
		all = append(all, js...)
	}
	return all
}

// listed hands out a fixed list of specs, one per call, to whichever
// client asks first.
func listed(specs []server.Spec) func(int) (server.Spec, bool) {
	var mu sync.Mutex
	i := 0
	return func(int) (server.Spec, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(specs) {
			return server.Spec{}, false
		}
		i++
		return specs[i-1], true
	}
}
