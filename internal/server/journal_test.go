package server

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, skipped, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("fresh journal skipped %v", skipped)
	}

	spec := Spec{Failure: "f4"}.Normalize()
	job := Job{Key: spec.Key(), Spec: spec, State: StateQueued, Submissions: 1}
	if err := j.Put(job); err != nil {
		t.Fatal(err)
	}
	updated, err := j.Update(job.Key, func(jb *Job) { jb.State = StateRunning; jb.Submissions = 2 })
	if err != nil {
		t.Fatal(err)
	}
	if updated.State != StateRunning || updated.Submissions != 2 {
		t.Fatalf("Update returned %+v", updated)
	}

	// A reopened journal sees exactly the persisted state.
	j2, skipped, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("reopen skipped %v", skipped)
	}
	got, ok := j2.Get(job.Key)
	if !ok {
		t.Fatal("job lost across reopen")
	}
	if got.State != StateRunning || got.Submissions != 2 || !reflect.DeepEqual(got.Spec, spec) {
		t.Fatalf("reopened job = %+v", got)
	}
}

// A directory without a readable record is the footprint of a death
// between MkdirAll and the first record write — before the submission
// was acknowledged. Reopen must skip it, not fail the whole journal.
func TestJournalSkipsRecordlessDirs(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Failure: "f1"}.Normalize()
	if err := j.Put(Job{Key: spec.Key(), Spec: spec, State: StateQueued, Submissions: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn submission next to the good one.
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "deadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "deadbeef", jobFile), []byte(`{"kind":"serv`), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, skipped, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "deadbeef" {
		t.Fatalf("skipped = %v, want [deadbeef]", skipped)
	}
	if got := j2.Jobs(); len(got) != 1 || got[0].Key != spec.Key() {
		t.Fatalf("journal holds %+v, want the one good job", got)
	}
}

// Publish changes the table and not the disk; the job's next durable
// Update carries the change with it.
func TestJournalPublishIsMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Failure: "f4"}.Normalize()
	key := spec.Key()
	if err := j.Put(Job{Key: key, Spec: spec, State: StateQueued, Submissions: 1}); err != nil {
		t.Fatal(err)
	}
	j.Publish(key, func(jb *Job) { jb.State = StateRunning })
	if got, _ := j.Get(key); got.State != StateRunning {
		t.Fatalf("published state = %s, want running", got.State)
	}
	onDisk := func() *Job {
		job, err := readJob(filepath.Join(j.Dir(key), jobFile))
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	if got := onDisk(); got.State != StateQueued {
		t.Fatalf("Publish reached the disk: record says %s", got.State)
	}
	if _, err := j.Update(key, func(jb *Job) { jb.Submissions++ }); err != nil {
		t.Fatal(err)
	}
	if got := onDisk(); got.State != StateRunning || got.Submissions != 2 {
		t.Fatalf("durable update wrote %+v, want running with 2 submissions", got)
	}
}

// An older daemon kept retry bookkeeping in the record: the testdata
// record is one of its running jobs, one failed attempt and one backoff
// in. It still loads — the decoder ignores the two keys — and is
// re-admitted and finishes byte-identical to a serial run.
func TestOlderRecordWithRetryFieldsLoads(t *testing.T) {
	const older = "testdata/older-running-job.json"
	rec, err := readJob(older)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning || rec.Key != rec.Spec.Key() {
		t.Fatalf("fixture holds %+v, want a running job keyed by its spec", rec)
	}
	raw, err := os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", rec.Key)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, jobFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, Config{DataDir: dir, Workers: 1})
	waitIdle(t, s)
	assertMatchesSerial(t, s, rec.Key, rec.Spec)
	if s.Executions() != 1 {
		t.Fatalf("the older record ran %d executions, want 1", s.Executions())
	}
}

func TestJournalUpdateUnknownJob(t *testing.T) {
	j, _, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Update("nope", func(*Job) {}); err == nil {
		t.Fatal("Update of unknown job succeeded")
	}
}
