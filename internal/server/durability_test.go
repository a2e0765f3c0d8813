package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"anduril/internal/checkpoint"
	"anduril/internal/core"
)

// The write path's rules, each asserted where it can be counted, blocked
// or broken: one durability point per transition (exact fsync counts, the
// hand-built completion crash states), and no lock across a disk write
// (readers and unrelated admissions return while a persist is held open).

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

// Fsync budget, exact. A cold job pays 7 (record file, job dir, jobs/ at
// admission; trace file, report file, record file and job dir at
// completion) whatever its length — nothing is written while it runs — and
// a dedupe hit 2 (record file, job dir). queued→running is not on the list.
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
	short := Spec{Failure: "f4"}
	if got := run(s, short); got != 7 {
		t.Errorf("cold job cost %d fsyncs, want 7", got)
	}
	if got := syncsOf(func() {
		if _, deduped, err := s.Submit(short); err != nil || !deduped {
			t.Fatalf("resubmit = (%v, deduped=%v)", err, deduped)
		}
	}); got != 2 {
		t.Errorf("dedupe hit cost %d fsyncs, want 2", got)
	}
	assertMatchesSerial(t, s, short.Normalize().Key(), short)

	long := Spec{Failure: "f9"}
	if rep, _ := serialRun(t, long); rep.Rounds < 10 {
		t.Fatalf("f9 takes %d rounds; the long row needs a job of 10 or more", rep.Rounds)
	}
	if got := run(s, long); got != 7 {
		t.Errorf("long job cost %d fsyncs, want 7", got)
	}
	assertMatchesSerial(t, s, long.Normalize().Key(), long)
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

// An execution that fails is the job's verdict: one execution, the job
// journaled failed with the error that ended it — a completion write that
// fails, or a search that panics — and a restarted daemon finds it failed
// and runs nothing.
func TestFailedAttemptFailsTheJob(t *testing.T) {
	for _, tc := range []struct {
		name     string
		why      string // the error the job must be failed with
		sabotage func(s *Server)
	}{
		{"completion write fails", "injected completion write failure", func(s *Server) {
			s.journal.persist = func(job *Job, create bool) error {
				if job.State == StateDone {
					return errors.New("injected completion write failure")
				}
				return s.journal.save(job, create)
			}
		}},
		{"search panics", "server: job panic: injected search panic", func(s *Server) {
			s.searchFn = func(Spec, core.Options) (*core.Report, error) { panic("injected search panic") }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newServer(t, Config{DataDir: dir, Workers: 1})
			tc.sabotage(s)
			job, _, err := s.Submit(Spec{Failure: "f4", Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			waitIdle(t, s)
			if got, _ := s.Job(job.Key); got.State != StateFailed || got.Error != tc.why || s.Executions() != 1 {
				t.Fatalf("job = %+v after %d executions, want failed with %q after 1", got, s.Executions(), tc.why)
			}
			s.Shutdown()

			s2 := newServer(t, Config{DataDir: dir, Workers: 1})
			waitIdle(t, s2)
			if got, _ := s2.Job(job.Key); got.State != StateFailed || got.Error != tc.why || s2.Executions() != 0 {
				t.Fatalf("after a restart job = %+v after %d executions, want failed with %q and none", got, s2.Executions(), tc.why)
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

// Every on-disk state a kill or a power loss can leave between the
// completion commit's first rename and its directory fsync, built by hand
// from a finished job's directory — alone, and beside the search.ck.json an
// older daemon wrote, which nothing reads. The record-running rows are also
// what a daemon from before this write path left behind mid-job. Open must
// drive each to done, byte-identical to a serial run, with at most one
// further execution.
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
		trace    string // "kept" or "missing"
		wantRuns int64
	}
	states := []state{
		{"trace complete, no report, record queued", StateQueued, "missing", "kept", 1},
		{"trace complete, no report, record running", StateRunning, "missing", "kept", 1},
		{"report renamed, record still queued", StateQueued, "kept", "kept", 1},
		{"report renamed, record still running", StateRunning, "kept", "kept", 1},
		{"record done, report missing", StateDone, "missing", "kept", 1},
		{"record done, report torn", StateDone, "torn", "kept", 1},
		{"record done, trace missing", StateDone, "kept", "missing", 1},
		{"record done, report kept", StateDone, "kept", "kept", 0},
	}
	for _, st := range states {
		for _, oldCk := range []bool{false, true} {
			st, oldCk := st, oldCk
			name := st.name + ", no checkpoint"
			if oldCk {
				name = st.name + ", older daemon's checkpoint"
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
				if st.trace == "missing" {
					if err := os.Remove(filepath.Join(jobDir, traceFile)); err != nil {
						t.Fatal(err)
					}
				}
				if oldCk {
					// An older daemon's search checkpoint, at round 5 of 19.
					ck := map[string]any{"target": "f9", "strategy": "full-feedback", "seed": 1, "round": 5}
					if err := checkpoint.Save(filepath.Join(jobDir, "search.ck.json"), "explorer-search", 3, ck); err != nil {
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
