package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"anduril/internal/checkpoint"
	"anduril/internal/core"
	"anduril/internal/trace"
)

// The write path's rules, each asserted where it can be counted, blocked
// or broken: one durability point per transition (exact fsync counts, the
// hand-built completion crash states), no lock across a disk write
// (readers and unrelated admissions return while a persist is held open),
// and no checkpoint without its trace (the journal's appends made to fail).

// within fails the test unless f returns promptly. A call that blocks
// behind someone else's disk write is exactly what these tests exist to
// catch, so it must surface as a failure, not as a hung test binary.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s blocked behind a held persist", what)
	}
}

// syncsOf returns how many fsyncs f issued.
func syncsOf(f func()) int64 {
	before := checkpoint.Syncs()
	f()
	return checkpoint.Syncs() - before
}

// Fsync budget, exact. A cold job that finishes before its first periodic
// checkpoint pays 7 (record file, job dir, jobs/ at admission; trace;
// report file; record file and job dir at completion); a dedupe hit 2
// (record file, job dir); each periodic checkpoint 3 more (trace, search
// checkpoint file, job dir). queued→running is not on the list.
func TestFsyncBudget(t *testing.T) {
	run := func(s *Server, spec Spec) int64 {
		return syncsOf(func() {
			if _, deduped, err := s.Submit(spec); err != nil || deduped {
				t.Fatalf("Submit = (%v, deduped=%v)", err, deduped)
			}
			waitIdle(t, s)
		})
	}

	s := newServer(t, Config{Workers: 1})
	cold := Spec{Failure: "f4"} // reproduces in 3 rounds, first checkpoint would be round 5
	if rep, _ := serialRun(t, cold); rep.Rounds > 4 {
		t.Fatalf("f4 takes %d rounds; the cold row needs a job under 5", rep.Rounds)
	}
	if got := run(s, cold); got != 7 {
		t.Errorf("cold job cost %d fsyncs, want 7", got)
	}
	if got := syncsOf(func() {
		if _, deduped, err := s.Submit(cold); err != nil || !deduped {
			t.Fatalf("resubmit = (%v, deduped=%v)", err, deduped)
		}
	}); got != 2 {
		t.Errorf("dedupe hit cost %d fsyncs, want 2", got)
	}
	assertMatchesSerial(t, s, cold.Normalize().Key(), cold)

	long := Spec{Failure: "f9"}
	rep, _ := serialRun(t, long)
	k := int64((rep.Rounds - 1) / 5) // the reproducing round writes no checkpoint
	if k < 2 {
		t.Fatalf("f9 takes %d rounds; the checkpoint row needs at least 2 periodic checkpoints", rep.Rounds)
	}
	if got := run(s, long); got != 7+3*k {
		t.Errorf("job with %d periodic checkpoints cost %d fsyncs, want %d", k, got, 7+3*k)
	}
}

// durableRounds returns the highest round whose trace lines are on disk
// and the round of the search checkpoint beside it, -1 for none.
func durableRounds(t *testing.T, jobDir string) (traced, checkpointed int) {
	t.Helper()
	traced, checkpointed = -1, -1
	for _, line := range bytes.Split(readFile(t, filepath.Join(jobDir, traceFile)), []byte("\n")) {
		if _, round, ok := trace.LineMeta(line); ok && round > traced {
			traced = round
		}
	}
	if ck, err := core.LoadCheckpoint(filepath.Join(jobDir, ckFile)); err == nil {
		checkpointed = ck.Round
	}
	return traced, checkpointed
}

// The periodic commit writes no checkpoint over a trace it could not
// flush. The journal's handle is swapped for a read-only one, so every
// append fails the way a full disk fails it; the search (f4, window 1,
// checkpoint every 2 rounds) is killed after round 6. While appends fail
// no checkpoint may land, the failure is on the report and in the log, and
// the search goes on; once they work again the next interval commits trace
// and checkpoint together. Either way a restarted daemon finishes the job
// with the uninterrupted run's bytes — from round 6, or from nothing.
func TestFailedTraceFlushWritesNoCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		healAt int // the checkpoint round appends work again from; 0 = never
		wantCk int // trace and checkpoint on disk at the kill
	}{
		{"appends work again", 4, 6},
		{"appends never work again", 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, logged := t.TempDir(), ""
			s1 := newServer(t, Config{DataDir: dir, Workers: 1, CheckpointEvery: 2, Logf: func(format string, args ...any) {
				logged += fmt.Sprintf(format, args...) + "\n" // the one worker's; read after Shutdown
			}})
			spec := Spec{Failure: "f4", Window: 1}
			key := spec.Normalize().Key()
			jobDir := filepath.Join(dir, "jobs", key)

			var killed *core.Report
			s1.searchFn = func(sp Spec, opts core.Options, ck core.Checkpoint, haveCk bool) (*core.Report, error) {
				wal, _ := s1.liveWAL(key)
				readOnly, err := os.Open(wal.path)
				if err != nil {
					return nil, err
				}
				defer readOnly.Close()
				working := wal.f
				wal.f = readOnly // only this goroutine appends
				defer func() { wal.f = working }()
				commit := opts.Checkpoint
				opts.Checkpoint = func(ck core.Checkpoint) error {
					if ck.Round == tc.healAt {
						wal.f = working
					}
					err := commit(ck)
					if traced, checkpointed := durableRounds(t, jobDir); checkpointed > traced {
						t.Errorf("commit at round %d (err %v): checkpoint at round %d over a trace durable through round %d", ck.Round, err, checkpointed, traced)
					}
					return err
				}
				opts.StopAfterRound = 6
				killed, err = s1.runSearch(sp, opts, ck, haveCk)
				return killed, err
			}
			if _, _, err := s1.Submit(spec); err != nil {
				t.Fatal(err)
			}
			waitIdle(t, s1)
			s1.Shutdown()
			if killed == nil || !killed.Interrupted || killed.Rounds != 6 {
				t.Fatalf("killed run = %+v, want an interrupt after round 6", killed)
			}
			if !strings.Contains(killed.CheckpointError, "append trace journal") || !strings.Contains(logged, "no checkpoint at round 2") {
				t.Errorf("the failed commit of round 2: CheckpointError = %q, log:\n%s", killed.CheckpointError, logged)
			}
			if traced, checkpointed := durableRounds(t, jobDir); checkpointed != tc.wantCk || traced != tc.wantCk {
				t.Fatalf("at the kill: trace durable through round %d, checkpoint at round %d, want both %d", traced, checkpointed, tc.wantCk)
			}

			s2 := newServer(t, Config{DataDir: dir, Workers: 1})
			waitIdle(t, s2)
			assertMatchesSerial(t, s2, key, spec)
		})
	}
}

// holdPersist makes the journal's persist step for the given keys block
// until release is closed; entered receives each blocked key.
func holdPersist(s *Server, keys ...string) (entered chan string, release chan struct{}) {
	entered, release = make(chan string, 16), make(chan struct{})
	held := map[string]bool{}
	for _, k := range keys {
		held[k] = true
	}
	s.journal.persist = func(job *Job, create bool) error {
		if held[job.Key] {
			entered <- job.Key
			<-release
		}
		return s.journal.save(job, create)
	}
	return entered, release
}

// With one job's record update and another job's admission both stuck
// inside their disk writes, every read and an unrelated admission still
// complete: no lock a reader needs is held across a persist.
func TestReadersNeverWaitOnAWrite(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	doneSpec, otherSpec := Spec{Failure: "f4"}, Spec{Failure: "f1"}
	var keys []string
	for _, sp := range []Spec{doneSpec, otherSpec} {
		job, _, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, job.Key)
	}
	waitIdle(t, s)

	admitSpec := Spec{Failure: "f12"}
	entered, release := holdPersist(s, keys[0], admitSpec.Normalize().Key())
	var blocked sync.WaitGroup
	for _, sp := range []Spec{doneSpec, admitSpec} { // a Submissions++ and a first Put
		sp := sp
		blocked.Add(1)
		go func() {
			defer blocked.Done()
			if _, _, err := s.Submit(sp); err != nil {
				t.Errorf("held submission of %s: %v", sp.Failure, err)
			}
		}()
	}
	<-entered
	<-entered

	within(t, "Journal.Get of the job being written", func() {
		if job, ok := s.journal.Get(keys[0]); !ok || job.Submissions != 1 {
			t.Errorf("Get = (%+v, %v), want the record as last persisted", job, ok)
		}
	})
	within(t, "Journal.Get of another job", func() { s.journal.Get(keys[1]) })
	within(t, "Server.Job", func() { s.Job(keys[0]) })
	within(t, "Server.Jobs", func() {
		if got := len(s.Jobs()); got != 2 {
			t.Errorf("Jobs lists %d records, want the 2 durable ones", got)
		}
	})
	within(t, "Server.Ready", func() { s.Ready() })
	within(t, "Submit of an unrelated spec", func() {
		if _, deduped, err := s.Submit(Spec{Failure: "f4", Seed: 9}); err != nil || deduped {
			t.Errorf("unrelated Submit = (%v, deduped=%v)", err, deduped)
		}
	})

	close(release)
	blocked.Wait()
	waitIdle(t, s)
	if job, _ := s.Job(keys[0]); job.Submissions != 2 {
		t.Fatalf("held resubmission journaled %d submissions, want 2", job.Submissions)
	}
}

// Sixteen first submissions of one never-seen spec, the first one's
// journal write held open until the rest are in flight: one job, one
// execution, every submission counted. With a FAILING first write the
// admitter gets the error, one waiter takes the admission over, and the
// reserved queue slot is released (WaitIdle returns).
func TestRacingFirstSubmissions(t *testing.T) {
	for _, failFirst := range []bool{false, true} {
		name := "first persist held"
		if failFirst {
			name = "first persist fails"
		}
		t.Run(name, func(t *testing.T) {
			s := newServer(t, Config{Workers: 2})
			const n = 16
			spec := Spec{Failure: "f4", Seed: 2}
			entered, release := make(chan struct{}), make(chan struct{})
			var first sync.Once
			s.journal.persist = func(job *Job, create bool) error {
				fail := false
				first.Do(func() {
					close(entered)
					<-release
					fail = failFirst
				})
				if fail {
					return errors.New("injected persist failure")
				}
				return s.journal.save(job, create)
			}

			var fresh, deduped, failed int
			var mu sync.Mutex
			var started, finished sync.WaitGroup
			submit := func() {
				defer finished.Done()
				started.Done()
				_, dup, err := s.Submit(spec)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil:
					failed++
				case dup:
					deduped++
				default:
					fresh++
				}
			}
			started.Add(n)
			finished.Add(n)
			go submit()
			<-entered // the admitter is inside its disk write
			for i := 1; i < n; i++ {
				go submit()
			}
			started.Wait()
			close(release)
			finished.Wait()
			waitIdle(t, s)

			wantFailed := 0
			if failFirst {
				wantFailed = 1
			}
			if fresh != 1 || failed != wantFailed || deduped != n-1-wantFailed {
				t.Fatalf("fresh=%d deduped=%d failed=%d, want 1/%d/%d", fresh, deduped, failed, n-1-wantFailed, wantFailed)
			}
			if s.Executions() != 1 {
				t.Fatalf("executions = %d, want 1", s.Executions())
			}
			key := spec.Normalize().Key()
			if job, _ := s.Job(key); job.Submissions != n-wantFailed {
				t.Fatalf("job records %d submissions, want %d", job.Submissions, n-wantFailed)
			}
			assertMatchesSerial(t, s, key, spec)
		})
	}
}

// A failed completion write is a transient failure like any other: the
// attempt is retried with the seeded backoff, and a write that never
// succeeds ends the job failed after MaxAttempts instead of leaving it
// running with no executor.
func TestServerRetriesFailedCompletionWrite(t *testing.T) {
	for _, tc := range []struct {
		name         string
		failures     int // completion writes that fail before one is let through
		wantState    string
		wantAttempts int // failed attempts journaled
		wantSleeps   int // backoffs taken
	}{
		{"once", 1, StateDone, 1, 1},
		{"always", 1 << 30, StateFailed, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vc := &virtualClock{}
			s := newServer(t, Config{Workers: 1, MaxAttempts: 3, Clock: vc})
			left := tc.failures
			s.journal.persist = func(job *Job, create bool) error {
				if job.State == StateDone && left > 0 {
					left--
					return errors.New("injected completion write failure")
				}
				return s.journal.save(job, create)
			}
			spec := Spec{Failure: "f4", Seed: 3}
			job, _, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitIdle(t, s)
			got, _ := s.Job(job.Key)
			if got.State != tc.wantState || got.Attempts != tc.wantAttempts {
				t.Fatalf("job = %+v, want %s after %d failed attempts", got, tc.wantState, tc.wantAttempts)
			}
			// Every attempt ran the search: one execution per failed
			// attempt, plus the one that got through.
			wantExecs := tc.wantAttempts
			if tc.wantState == StateDone {
				wantExecs++
			}
			if s.Executions() != int64(wantExecs) || len(vc.schedule()) != tc.wantSleeps {
				t.Fatalf("executions = %d, backoffs = %d; want %d and %d", s.Executions(), len(vc.schedule()), wantExecs, tc.wantSleeps)
			}
			if tc.wantState == StateDone {
				assertMatchesSerial(t, s, job.Key, spec)
			}
		})
	}
}

// copyTree copies the regular files of a data directory.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Every on-disk state a kill or a power loss can leave between the trace's
// final fsync and the completion commit's directory fsync, built by hand
// from a finished job's directory, with and without the search checkpoint
// (f9 writes three before it reproduces). The record-running rows are
// also what a daemon from before this write path left behind mid-job.
// Open must drive each to done, byte-identical to a serial run, with at
// most one further execution.
func TestCompletionCrashPoints(t *testing.T) {
	spec := Spec{Failure: "f9"}
	key := spec.Normalize().Key()
	template := t.TempDir()
	s0, err := Open(Config{DataDir: template, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s0.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s0)
	assertMatchesSerial(t, s0, key, spec)
	s0.Shutdown()
	if _, ok := s0.Job(key); !ok {
		t.Fatal("template job missing")
	}

	type state struct {
		name     string
		record   string // state the surviving job.json carries
		report   string // "kept", "missing" or "torn"
		wantRuns int64
	}
	states := []state{
		{"trace complete, no report, record queued", StateQueued, "missing", 1},
		{"trace complete, no report, record running", StateRunning, "missing", 1},
		{"report renamed, record still queued", StateQueued, "kept", 1},
		{"report renamed, record still running", StateRunning, "kept", 1},
		{"record done, report missing", StateDone, "missing", 1},
		{"record done, report torn", StateDone, "torn", 1},
		{"record done, report kept", StateDone, "kept", 0},
	}
	for _, st := range states {
		for _, keepCk := range []bool{true, false} {
			st, keepCk := st, keepCk
			name := st.name + ", with checkpoint"
			if !keepCk {
				name = st.name + ", no checkpoint"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				copyTree(t, template, dir)
				jobDir := filepath.Join(dir, "jobs", key)
				rec, err := readJob(filepath.Join(jobDir, jobFile))
				if err != nil {
					t.Fatal(err)
				}
				if st.record != StateDone {
					rec.State, rec.Reproduced, rec.Rounds = st.record, false, 0
				}
				if err := checkpoint.Save(filepath.Join(jobDir, jobFile), jobKind, jobVersion, rec); err != nil {
					t.Fatal(err)
				}
				switch st.report {
				case "missing":
					err = os.Remove(filepath.Join(jobDir, reportFile))
				case "torn":
					err = os.WriteFile(filepath.Join(jobDir, reportFile), []byte(`{"kind":"server-rep`), 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !keepCk {
					if err := os.Remove(filepath.Join(jobDir, ckFile)); err != nil {
						t.Fatal(err)
					}
				}

				s := newServer(t, Config{DataDir: dir, Workers: 1})
				waitIdle(t, s)
				assertMatchesSerial(t, s, key, spec)
				if s.Executions() != st.wantRuns {
					t.Fatalf("recovery ran %d executions, want %d", s.Executions(), st.wantRuns)
				}
				// What recovery finished is durable: a third daemon finds
				// nothing left to do.
				s.Shutdown()
				s3 := newServer(t, Config{DataDir: dir, Workers: 1})
				waitIdle(t, s3)
				if s3.Executions() != 0 {
					t.Fatalf("a second restart re-ran the job (%d executions)", s3.Executions())
				}
				raw, err := s3.TraceJSONL(key)
				if _, want := serialRun(t, spec); err != nil || !bytes.Equal(raw, want) {
					t.Fatalf("trace after second restart diverged (err %v)", err)
				}
			})
		}
	}
}
