package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

func serialTarget(t *testing.T, id string) *core.Target {
	t.Helper()
	sc, ok := failures.ByID(id)
	if !ok {
		t.Fatalf("unknown failure %s", id)
	}
	target, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	return target
}

// serialRun executes the spec the way a plain serial caller would — no
// daemon, no interruptions — and returns the report and the exact trace
// bytes. Every daemon test compares against this: the server's whole value
// proposition is that queueing, dedupe, restarts and re-runs change
// NOTHING about the result.
func serialRun(t *testing.T, spec Spec) (*core.Report, []byte) {
	t.Helper()
	sp := spec.Normalize()
	opts := sp.Options()
	var buf bytes.Buffer
	opts.Trace = trace.NewWriter(&buf)
	rep := core.Reproduce(serialTarget(t, sp.Failure), opts)
	return rep, buf.Bytes()
}

func canonical(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	raw, err := core.CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("server never went idle: %v", err)
	}
}

// assertMatchesSerial checks the daemon's stored artifacts for a done
// job against the serial run: canonical report and trace byte-identical.
func assertMatchesSerial(t *testing.T, s *Server, key string, spec Spec) {
	t.Helper()
	job, ok := s.Job(key)
	if !ok {
		t.Fatalf("job %s missing", key)
	}
	if job.State != StateDone {
		t.Fatalf("job %s is %s (error %q), want done", key, job.State, job.Error)
	}
	wantRep, wantTrace := serialRun(t, spec)
	gotCanon, err := s.CanonicalReportJSON(key)
	if err != nil {
		t.Fatal(err)
	}
	if want := canonical(t, wantRep); !bytes.Equal(gotCanon, want) {
		t.Fatalf("canonical report diverged from serial run:\ndaemon: %s\nserial: %s", gotCanon, want)
	}
	gotTrace, err := s.TraceJSONL(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("trace diverged from serial run (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
	if job.Reproduced != wantRep.Reproduced || job.Rounds != wantRep.Rounds {
		t.Fatalf("job summary (%v, %d) disagrees with report (%v, %d)",
			job.Reproduced, job.Rounds, wantRep.Reproduced, wantRep.Rounds)
	}
}

func TestServerRunsJobToCompletion(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	spec := Spec{Failure: "f4"}
	job, deduped, err := s.Submit(spec)
	if err != nil || deduped {
		t.Fatalf("Submit = (%v, deduped=%v)", err, deduped)
	}
	waitIdle(t, s)
	assertMatchesSerial(t, s, job.Key, spec)
	if s.Executions() != 1 {
		t.Fatalf("executions = %d, want 1", s.Executions())
	}
}

// N racing identical submissions are one job: one execution, one set of
// artifacts, every submitter handed the same key and, eventually, the
// same report.
func TestServerDedupesIdenticalSubmissions(t *testing.T) {
	s := newServer(t, Config{Workers: 4})
	const n = 16
	spec := Spec{Failure: "f4", Seed: 3}
	keys := make([]string, n)
	dedups := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, deduped, err := s.Submit(spec)
			if err != nil {
				t.Errorf("submission %d: %v", i, err)
				return
			}
			keys[i], dedups[i] = job.Key, deduped
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	fresh := 0
	for i := 1; i < n; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("submission %d got key %s, want %s", i, keys[i], keys[0])
		}
	}
	for _, d := range dedups {
		if !d {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d submissions were treated as new, want exactly 1", fresh)
	}
	waitIdle(t, s)
	if s.Executions() != 1 {
		t.Fatalf("executions = %d, want 1 for %d identical submissions", s.Executions(), n)
	}
	job, _ := s.Job(keys[0])
	if job.Submissions != n {
		t.Fatalf("job records %d submissions, want %d", job.Submissions, n)
	}
	// Every submitter reads the same terminal report bytes.
	first, err := s.ReportJSON(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		raw, err := s.ReportJSON(keys[i])
		if err != nil || !bytes.Equal(raw, first) {
			t.Fatalf("submitter %d read a different report (err %v)", i, err)
		}
	}
	assertMatchesSerial(t, s, keys[0], spec)
}

// The report a client downloads is enough to re-trigger the failure:
// report.json read back from the daemon, exported as a script file, loaded
// and replayed under the seed the file records, satisfies the oracle — for
// a site root, a fault pair and a path-addressed partial failure.
func TestDaemonReportScriptsReplay(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	specs := []Spec{{Failure: "f4"}, {Failure: "f31"}, {Failure: "f33", Addressing: "path"}}
	for _, spec := range specs {
		if _, _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, s)
	var shapes []string
	for _, spec := range specs {
		raw, err := s.ReportJSON(spec.Normalize().Key())
		if err != nil {
			t.Fatal(err)
		}
		rep := &core.Report{}
		if err := json.Unmarshal(raw, rep); err != nil {
			t.Fatal(err)
		}
		sf, err := core.ScriptOf(rep)
		if err != nil {
			t.Fatalf("%s: %v", spec.Failure, err)
		}
		file, _ := sf.Marshal()
		loaded, err := core.LoadScript(file)
		if err != nil {
			t.Fatalf("%s: script exported from the stored report does not load: %v\n%s", spec.Failure, err, file)
		}
		tgt := serialTarget(t, spec.Failure)
		res, err := cluster.Run(nil, nil, loaded.Seed, loaded.Plan(), tgt.Workload, tgt.Horizon, 0)
		if err != nil || !tgt.Oracle.Satisfied(res) {
			t.Fatalf("%s: script %+v from the stored report does not replay under its seed %d", spec.Failure, loaded.Faults, loaded.Seed)
		}
		f := loaded.Faults[0]
		shapes = append(shapes, fmt.Sprintf("pair=%v partial=%v path=%v", inject.IsPairSite(f.Site), inject.IsPartialSite(f.Site), f.Path != ""))
	}
	// A pair names its two members in Path whatever the addressing mode.
	if want := []string{"pair=false partial=false path=false", "pair=true partial=false path=true", "pair=false partial=true path=true"}; !reflect.DeepEqual(shapes, want) {
		t.Fatalf("scripts have the shapes %q, want %q", shapes, want)
	}
}

// Admission control: with the queue at capacity a submission is shed
// with a retryable overload error, and every job that WAS accepted still
// completes.
func TestServerShedsLoadWhenQueueFull(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	s.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		return heldSearch(sp, opts, release), nil
	}

	a, _, err := s.Submit(Spec{Failure: "f4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until A occupies the worker so B below is the queue's sole
	// occupant and C is deterministically one-over.
	deadline := time.Now().Add(30 * time.Second)
	for s.Executions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	b, _, err := s.Submit(Spec{Failure: "f4", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Submit(Spec{Failure: "f4", Seed: 3})
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("over-capacity submission returned %v, want OverloadError", err)
	}
	if overload.RetryAfter <= 0 {
		t.Fatalf("Retry-After = %s, want positive", overload.RetryAfter)
	}
	// Resubmitting an EXISTING job while at capacity still dedupes — the
	// cap bounds new work, not lookups.
	if _, deduped, err := s.Submit(Spec{Failure: "f4", Seed: 1}); err != nil || !deduped {
		t.Fatalf("dedupe under load = (%v, deduped=%v)", err, deduped)
	}
	close(release)
	waitIdle(t, s)
	for _, key := range []string{a.Key, b.Key} {
		job, _ := s.Job(key)
		if job.State != StateDone {
			t.Fatalf("accepted job %s ended %s, want done", key[:12], job.State)
		}
	}
}

// A deterministic failure — the report itself says the search cannot
// start — fails fast: one execution, the diagnosis journaled.
func TestServerFailsFastOnDeterministicFailure(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	const why = "free run failed: workload wedged"
	s.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		return &core.Report{Target: sp.Failure, Error: why}, nil
	}
	job, _, err := s.Submit(Spec{Failure: "f4", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	got, _ := s.Job(job.Key)
	if got.State != StateFailed || got.Error != why || s.Executions() != 1 {
		t.Fatalf("job = %+v after %d executions, want failed with %q after 1", got, s.Executions(), why)
	}
}

// Graceful drain mid-search, then restart: the interrupted job is
// re-admitted, run again from its spec, and finishes with artifacts
// byte-identical to an uninterrupted serial run.
func TestServerDrainAndRestartResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Failure: "f30"}
	s1, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the search get going, then drain mid-flight.
	deadline := time.Now().Add(60 * time.Second)
	for {
		raw, err := s1.TraceJSONL(job.Key)
		if err == nil && bytes.Count(raw, []byte("\n")) > 20 {
			break
		}
		if j, _ := s1.Job(job.Key); j.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never got going")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Shutdown()

	mid, _ := s1.Job(job.Key)
	if !mid.Terminal() && mid.State != StateRunning {
		t.Fatalf("drained job in state %s, want running (re-admittable) or terminal", mid.State)
	}

	if !mid.Terminal() {
		if raw, err := os.ReadFile(filepath.Join(dir, "jobs", job.Key, traceFile)); !os.IsNotExist(err) {
			t.Fatalf("the drained job left %d bytes of trace on disk (err %v); only a completed search's trace is written", len(raw), err)
		}
	}

	s2, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	waitIdle(t, s2)
	assertMatchesSerial(t, s2, job.Key, spec)
	if mid.Terminal() {
		t.Log("note: job finished before the drain; re-run path not exercised this run")
	}
}

// Kill with work still queued: nothing is lost, nothing runs twice. The
// restarted daemon re-admits the blocked runner AND the queued jobs and
// completes them all with serial-identical results.
func TestServerRestartReAdmitsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		<-opts.Context.Done() // wedge every execution until drain
		return &core.Report{Interrupted: true}, nil
	}
	specs := []Spec{
		{Failure: "f9"},
		{Failure: "f4", Seed: 1},
		{Failure: "f4", Seed: 2},
		{Failure: "f1"},
	}
	keys := make([]string, len(specs))
	for i, sp := range specs {
		job, _, err := s1.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = job.Key
	}
	deadline := time.Now().Add(30 * time.Second)
	for s1.Executions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Shutdown()

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	if got := len(s2.Jobs()); got != len(specs) {
		t.Fatalf("restarted journal holds %d jobs, want %d", got, len(specs))
	}
	waitIdle(t, s2)
	if s2.Executions() != int64(len(specs)) {
		t.Fatalf("restart executed %d jobs, want %d (no loss, no duplication)", s2.Executions(), len(specs))
	}
	for i, key := range keys {
		assertMatchesSerial(t, s2, key, specs[i])
	}
}

// heldSearch is a search that finishes when release is closed, or is
// interrupted when the server drains first, so a failing test's Shutdown
// does not wait on it forever.
func heldSearch(sp Spec, opts core.Options, release <-chan struct{}) *core.Report {
	select {
	case <-release:
		return &core.Report{Target: sp.Failure, Reproduced: true, Rounds: 1}
	case <-opts.Context.Done():
		return &core.Report{Interrupted: true}
	}
}

// The queue's workers bound concurrency: with every search blocked, no
// more than Workers execute at once, and the rest wait their turn.
func TestQueueBoundsConcurrency(t *testing.T) {
	const workers, jobs = 2, 6
	s := newServer(t, Config{Workers: workers})
	release := make(chan struct{})
	var running, peak atomic.Int32
	s.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return heldSearch(sp, opts, release), nil
	}
	for i := range jobs {
		if _, _, err := s.Submit(Spec{Failure: "f4", Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Executions() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers started a job", s.Executions(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a worker too many to start
	if got := s.Executions(); got != workers {
		t.Fatalf("%d jobs started while %d blocked the %d workers", got, workers, workers)
	}
	close(release)
	waitIdle(t, s)
	if got := peak.Load(); got != workers {
		t.Fatalf("peak concurrency %d, want %d", got, workers)
	}
	if got := s.Executions(); got != jobs {
		t.Fatalf("executed %d jobs, want %d", got, jobs)
	}
}

// One worker starts jobs in the order they were admitted.
func TestQueueStartsJobsInAdmissionOrder(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	release := make(chan struct{})
	var mu sync.Mutex
	var started []int64
	s.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		mu.Lock()
		started = append(started, sp.Seed)
		mu.Unlock()
		return heldSearch(sp, opts, release), nil
	}
	seeds := []int64{5, 3, 8, 1, 9, 2, 7}
	for _, seed := range seeds {
		if _, _, err := s.Submit(Spec{Failure: "f4", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	waitIdle(t, s)
	if !reflect.DeepEqual(started, seeds) {
		t.Fatalf("jobs started in seed order %v, admitted in %v", started, seeds)
	}
}

// A restart may re-admit more unfinished jobs than QueueCap: the queue
// holds them all, Open does not block on it, and every one runs to done.
func TestQueueHoldsReAdmittedJobsBeyondCap(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		<-opts.Context.Done()
		return &core.Report{Interrupted: true}, nil
	}
	var keys []string
	for seed := int64(1); seed <= 5; seed++ {
		job, _, err := s1.Submit(Spec{Failure: "f4", Seed: seed, MaxRounds: 5})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, job.Key)
	}
	s1.Shutdown()

	var s2 *Server
	within(t, "Open with a backlog over QueueCap", func() {
		s2, err = Open(Config{DataDir: dir, Workers: 1, QueueCap: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	waitIdle(t, s2)
	for _, key := range keys {
		if job, _ := s2.Job(key); job.State != StateDone {
			t.Fatalf("re-admitted job %s ended %s (error %q), want done", key[:12], job.State, job.Error)
		}
	}
	if got := s2.Executions(); got != int64(len(keys)) {
		t.Fatalf("restart executed %d jobs, want %d", got, len(keys))
	}
}

// Draining servers refuse new work but finish answering for old work.
func TestServerRejectsSubmissionsWhileDraining(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	job, _, err := s.Submit(Spec{Failure: "f4"})
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	s.Shutdown()
	if s.Ready() {
		t.Fatal("server reports ready after Shutdown")
	}
	if _, _, err := s.Submit(Spec{Failure: "f9"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission during drain returned %v, want ErrDraining", err)
	}
	// Reads still work.
	if _, ok := s.Job(job.Key); !ok {
		t.Fatal("job record unreadable during drain")
	}
	if _, err := s.ReportJSON(job.Key); err != nil {
		t.Fatalf("report unreadable during drain: %v", err)
	}
}
