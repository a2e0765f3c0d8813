package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anduril/internal/checkpoint"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/parallel"
)

// Config tunes a Server. The zero value of every field means its
// default.
type Config struct {
	// DataDir is the daemon's state directory; the job journal lives in
	// DataDir/jobs. Required.
	DataDir string

	// Workers bounds concurrent job executions; <= 0 means one per CPU.
	Workers int

	// QueueCap bounds jobs in state queued: one more and submissions are
	// shed with an overload error (HTTP 429 + Retry-After) instead of
	// accepted. Jobs re-admitted at startup do not count against the cap
	// — an accepted job is a promise, so a restart may briefly hold more
	// queued jobs than the cap and sheds new work until it drains.
	// Default 256.
	QueueCap int

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Admission errors. The HTTP layer maps them onto status codes; embedded
// users match them directly.
var (
	// ErrBadSpec wraps spec validation failures (HTTP 400).
	ErrBadSpec = errors.New("server: invalid job spec")
	// ErrDraining rejects submissions during shutdown (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// OverloadError sheds a submission because the queue is at capacity
// (HTTP 429). RetryAfter is a deterministic estimate of when capacity
// frees up, derived from queue depth — never from the wall clock.
type OverloadError struct {
	Queued     int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded (%d jobs queued), retry after %s", e.Queued, e.RetryAfter)
}

// Server is the reproduction daemon: a durable job journal, a FIFO of
// queued job keys drained by Workers goroutines, and the admission and
// dedupe machinery around them. Create one with Open; serve its HTTP API
// via Handler; stop it with Shutdown.
type Server struct {
	cfg     Config
	journal *Journal
	ctx     context.Context
	cancel  context.CancelFunc
	workers sync.WaitGroup

	// run carries queued job keys to the workers in admission order. Its
	// capacity is QueueCap plus the jobs Open re-admitted, and admission
	// keeps queued at or below max(QueueCap, re-admitted); every key in
	// run is counted in queued, so a send never blocks.
	run chan string

	// mu guards the fields below and is never held across a disk write.
	mu        sync.Mutex
	queued    int // jobs admitted (slot reserved or journaled), waiting for a worker
	active    int // jobs executing right now
	draining  bool
	traces    map[string]*traceBuffer  // running jobs' traces by job key
	admitting map[string]chan struct{} // first submissions being journaled; closed when settled

	executions atomic.Int64

	// searchFn runs a job's search; the default resolves the target and
	// calls core.Reproduce. Tests substitute it to exercise the failure and
	// recovery paths without a real search.
	searchFn func(sp Spec, opts core.Options) (*core.Report, error)
}

// Open loads the journal under cfg.DataDir, re-admits every unfinished
// job, and starts the workers. A job is unfinished when its record
// says queued or running (one state to recovery), or says done while
// report.json does not load or trace.jsonl is missing: the completion
// commit makes its three renames durable with one directory fsync, and a
// power loss before it may keep the record's alone. Each is run again from
// its spec; a search.ck.json an older daemon left beside it is ignored.
// They are queued in key order, so a restarted daemon starts them in a
// deterministic order.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir required")
	}
	journal, skipped, err := OpenJournal(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, key := range skipped {
		cfg.Logf("server: skipping unreadable job dir %s (died before first record write)", key)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{cfg: cfg, journal: journal, ctx: ctx, cancel: cancel,
		traces: map[string]*traceBuffer{}, admitting: map[string]chan struct{}{}}
	s.searchFn = s.runSearch
	var readmit []string
	for _, job := range journal.Jobs() {
		if job.State == StateFailed {
			continue
		}
		if job.State == StateDone && s.completed(job.Key) {
			continue
		}
		journal.Publish(job.Key, func(j *Job) { j.State, j.Reproduced, j.Rounds = StateQueued, false, 0 })
		readmit = append(readmit, job.Key)
		cfg.Logf("server: re-admitted job %s (%s)", job.Key[:12], job.Spec.Failure)
	}
	s.run = make(chan string, cfg.QueueCap+len(readmit))
	for _, key := range readmit {
		s.run <- key
	}
	s.queued = len(readmit)
	for range parallel.Workers(cfg.Workers) {
		s.workers.Add(1)
		go s.work()
	}
	return s, nil
}

// completed reports whether a done job's artifacts survived: report.json
// loads and trace.jsonl exists.
func (s *Server) completed(key string) bool {
	if _, err := s.ReportJSON(key); err != nil {
		return false
	}
	_, err := os.Stat(filepath.Join(s.journal.Dir(key), traceFile))
	return err == nil
}

// Submit admits one job. Returns the job record, whether the submission
// deduplicated onto an existing job (of any state — resubmitting a
// finished spec returns its cached result), and the admission error if
// the job was rejected: ErrBadSpec, ErrDraining, or *OverloadError.
// On (job, false, nil) the job is journaled durably — it will execute
// even if the daemon is killed right after.
//
// The server lock covers the admission decision — draining, dedupe, queue
// cap, the reserved queued slot — and is released before the journal
// write. Racing first submissions of one spec still resolve into one job
// and N-1 deduplicated hits: the first leaves an admitting entry, the
// others wait on it and then look the journal up again.
func (s *Server) Submit(spec Spec) (Job, bool, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Job{}, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	key := spec.Key()

	s.mu.Lock()
	for {
		if s.draining {
			s.mu.Unlock()
			return Job{}, false, ErrDraining
		}
		settled, inFlight := s.admitting[key]
		if !inFlight {
			break
		}
		s.mu.Unlock()
		<-settled
		s.mu.Lock()
	}
	if existing, ok := s.journal.Get(key); ok {
		s.mu.Unlock()
		job, err := s.journal.Update(key, func(j *Job) { j.Submissions++ })
		if err != nil {
			return existing, true, err
		}
		return job, true, nil
	}
	if s.queued >= s.cfg.QueueCap {
		overload := &OverloadError{Queued: s.queued, RetryAfter: s.retryAfterLocked()}
		s.mu.Unlock()
		return Job{}, false, overload
	}
	s.queued++
	settled := make(chan struct{})
	s.admitting[key] = settled
	s.mu.Unlock()

	job := Job{Key: key, Spec: spec, State: StateQueued, Submissions: 1}
	err := s.journal.Put(job)
	s.mu.Lock()
	delete(s.admitting, key)
	close(settled)
	// A racing Shutdown leaves the job journaled queued; the next Open
	// re-admits it, like any queued work.
	if err != nil || s.draining {
		s.queued--
	} else {
		s.run <- key // into the slot reserved above: never blocks
	}
	s.mu.Unlock()
	if err != nil {
		return Job{}, false, err
	}
	return job, false, nil
}

// retryAfterLocked estimates (deterministically, from queue depth alone)
// how long a shed client should wait before retrying.
func (s *Server) retryAfterLocked() time.Duration {
	workers := parallel.Workers(s.cfg.Workers)
	secs := 1 + s.queued/(workers*4)
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// Job returns a copy of a job record.
func (s *Server) Job(key string) (Job, bool) { return s.journal.Get(key) }

// ReportJSON returns a finished job's report as the exact JSON bytes
// core.Reproduce produced (the envelope payload is the raw Marshal of
// the report, so these bytes are comparable verbatim against a serial
// run's json.Marshal output).
func (s *Server) ReportJSON(key string) ([]byte, error) {
	return checkpoint.Load(filepath.Join(s.journal.Dir(key), reportFile), reportKind, reportVersion)
}

// CanonicalReportJSON returns the stored report normalized by
// core.CanonicalReport: wall-clock fields zeroed, everything
// seed-determined kept. This is the byte-comparison currency of the
// soak and crash gates — a daemon run (re-run, restarted or not) must
// produce canonical bytes identical to a serial run's.
func (s *Server) CanonicalReportJSON(key string) ([]byte, error) {
	raw, err := s.ReportJSON(key)
	if err != nil {
		return nil, err
	}
	rep := &core.Report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("server: decode report %s: %w", key, err)
	}
	return core.CanonicalReport(rep)
}

// TraceJSONL returns the job's trace: a running job's trace so far, from
// memory; the file the completion commit wrote, for a done job; nothing
// for a job that is queued or failed. A running job's trace is
// unpublished only after its record says done, so no caller sees a
// finished job with no trace.
func (s *Server) TraceJSONL(key string) ([]byte, error) {
	if tb, ok := s.liveTrace(key); ok {
		p, _, _ := tb.Read(0)
		return p, nil
	}
	if job, ok := s.journal.Get(key); ok && job.State != StateDone {
		return nil, nil
	}
	return os.ReadFile(filepath.Join(s.journal.Dir(key), traceFile))
}

// Jobs returns every job record, sorted by key.
func (s *Server) Jobs() []Job { return s.journal.Jobs() }

// Ready reports whether the server is accepting submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Shutdown drains the daemon: submissions are rejected, every running
// search is interrupted through context cancellation, and Shutdown
// returns once every worker has stopped. Interrupted and queued jobs
// stay journaled unfinished; the next Open re-admits and runs them.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.workers.Wait()
}

// work runs queued jobs, oldest first, until Shutdown.
func (s *Server) work() {
	defer s.workers.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case key := <-s.run:
			if s.ctx.Err() != nil {
				return // drained before it started: still journaled queued
			}
			s.runJob(key)
		}
	}
}

// runJob executes one job once: it publishes running and the job's trace,
// runs the search, journals the outcome and then closes the trace. It is
// the only writer of the job's state while the job runs. Outside
// executeOnce, the job's one panic boundary, it only reads and writes the
// journal, and those calls return errors. An execution that fails is the
// job's verdict: the search is a pure function of its spec, so running the
// spec again would fail again.
func (s *Server) runJob(key string) {
	s.mu.Lock()
	s.queued--
	s.active++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	job, ok := s.journal.Get(key)
	if !ok {
		s.cfg.Logf("server: job %s vanished from journal", key)
		return
	}
	s.journal.Publish(key, func(j *Job) { j.State = StateRunning })

	// The trace closes only once the record says how the job ended, so a
	// follower that sees the log close reads the final state.
	tb := newTraceBuffer()
	s.setTrace(key, tb)
	defer func() {
		s.setTrace(key, nil)
		tb.Close()
	}()
	execErr := s.executeOnce(key, job.Spec, tb)
	if execErr == nil {
		// The job is journaled done, or a graceful drain interrupted it and
		// the next Open runs it again.
		return
	}
	if _, err := s.journal.Update(key, func(j *Job) { j.State, j.Error = StateFailed, execErr.Error() }); err != nil {
		// Not even the failure can be journaled: answer pollers from
		// memory rather than leave the job running with no executor.
		s.cfg.Logf("server: job %s failed (%v), and journaling it failed: %v", key, execErr, err)
		s.journal.Publish(key, func(j *Job) { j.State, j.Error = StateFailed, execErr.Error() })
	}
}

// executeOnce runs the job's search inside its panic isolation boundary
// and, when the search finishes, commits the job done. A panic, a search
// that cannot start and an I/O error all surface as the error runJob
// journals the job failed with — one poisoned job cannot take down the
// daemon. A drained search returns nil and commits nothing.
func (s *Server) executeOnce(key string, spec Spec, tb *traceBuffer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: job panic: %v", r)
		}
	}()

	s.executions.Add(1)
	opts := spec.Options()
	opts.Context = s.ctx
	opts.Trace = tb
	rep, err := s.searchFn(spec, opts)
	switch {
	case err != nil || rep.Interrupted:
		return err
	case rep.Error != "":
		return errors.New(rep.Error) // the free run itself fails
	}
	// The completion commit: trace and report staged, each a renamed,
	// fsynced temp file, then the record's own durable write, whose fsync
	// of the job directory covers all three renames — and both artifacts
	// are in place before any poll can see done. A kill before the record
	// says done re-runs the job; Open handles a record that outlived an
	// artifact.
	dir := s.journal.Dir(key)
	if err := tb.WriteFile(filepath.Join(dir, traceFile)); err != nil {
		return err
	}
	if err := checkpoint.Stage(filepath.Join(dir, reportFile), reportKind, reportVersion, rep); err != nil {
		return err
	}
	_, err = s.journal.Update(key, func(j *Job) {
		j.State, j.Error = StateDone, ""
		j.Reproduced, j.Rounds = rep.Reproduced, rep.Rounds
	})
	return err
}

// runSearch is the production searchFn: resolve the scenario's target —
// built once per process and shared read-only by every job against the
// same failure; static analysis makes it the expensive part of a job —
// and run the explorer.
func (s *Server) runSearch(sp Spec, opts core.Options) (*core.Report, error) {
	sc, ok := failures.ByID(sp.Failure)
	if !ok {
		return nil, fmt.Errorf("server: unknown failure %q", sp.Failure)
	}
	t, err := sc.BuildTarget()
	if err != nil {
		return nil, err
	}
	return core.Reproduce(t, opts), nil
}

// setTrace publishes (tb != nil) or retires a running job's trace, for
// the trace endpoints.
func (s *Server) setTrace(key string, tb *traceBuffer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tb == nil {
		delete(s.traces, key)
	} else {
		s.traces[key] = tb
	}
}

// liveTrace returns the job's trace, if it is executing.
func (s *Server) liveTrace(key string) (*traceBuffer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tb, ok := s.traces[key]
	return tb, ok
}
