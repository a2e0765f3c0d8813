package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"anduril/internal/checkpoint"
)

// Journal file names inside <data>/jobs/<key>/.
const (
	jobFile    = "job.json"
	traceFile  = "trace.jsonl"
	reportFile = "report.json"

	jobKind    = "server-job"
	jobVersion = 1

	reportKind    = "server-report"
	reportVersion = 1
)

// Journal is the daemon's durable job table: one directory per job under
// <data>/jobs/, each holding the job record plus the search's artifacts.
// Every record write goes through an atomic checkpoint envelope and is
// fsynced (file and directories) before Put/Update return, which is what
// makes an HTTP 202 a promise: an accepted job survives kill -9 and
// power loss, and the next daemon start finds and finishes it.
//
// The in-memory table is a cache of what is on disk, never the other way
// around — mutations persist first and only then update the table, so a
// crash between the two merely re-reads the newer truth at next open.
// No lock a reader needs is held across a disk write: mu guards only the
// table, so Get and Jobs are memory reads, and writers of one job
// serialize on that job's own entry while they persist.
type Journal struct {
	dir string // <data>/jobs

	mu   sync.RWMutex
	jobs map[string]*entry

	// persist writes one record durably (create: the job's directory
	// too). Tests substitute it to block or fail a chosen write.
	persist func(job *Job, create bool) error
}

// entry is one job's slot in the table.
type entry struct {
	write sync.Mutex // held by the job's one writer, across its disk write
	job   Job        // written under write AND Journal.mu, read under either
}

// OpenJournal loads (creating if necessary) the job table under dataDir.
// Job directories whose record is missing or unreadable are skipped and
// reported in skipped: the only way to produce one is dying between
// MkdirAll and the first record write, before the submission was ever
// acknowledged, so ignoring it loses nothing a client was promised.
func OpenJournal(dataDir string) (j *Journal, skipped []string, err error) {
	dir := filepath.Join(dataDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	j = &Journal{dir: dir, jobs: map[string]*entry{}}
	j.persist = j.save
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		job, err := readJob(filepath.Join(dir, e.Name(), jobFile))
		if err != nil || job.Key != e.Name() {
			skipped = append(skipped, e.Name())
			continue
		}
		j.jobs[job.Key] = &entry{job: *job}
	}
	return j, skipped, nil
}

// readJob loads one job record envelope.
func readJob(path string) (*Job, error) {
	raw, err := checkpoint.Load(path, jobKind, jobVersion)
	if err != nil {
		return nil, err
	}
	job := &Job{}
	if err := json.Unmarshal(raw, job); err != nil {
		return nil, fmt.Errorf("server: decode %s: %w", path, err)
	}
	return job, nil
}

// Dir returns the job's directory (which holds its artifacts).
func (j *Journal) Dir(key string) string { return filepath.Join(j.dir, key) }

// Get returns a copy of the job record, if present.
func (j *Journal) Get(key string) (Job, bool) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	e, ok := j.jobs[key]
	if !ok {
		return Job{}, false
	}
	return e.job, true
}

// Jobs returns copies of every record, sorted by key — the journal's
// single deterministic iteration order, used for restart re-admission
// and listings.
func (j *Journal) Jobs() []Job {
	j.mu.RLock()
	out := make([]Job, 0, len(j.jobs))
	for _, e := range j.jobs {
		out = append(out, e.job)
	}
	j.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Put durably creates a job record (its directory included), then
// publishes it to the in-memory table. The caller admits one Put per key
// (Server.Submit's in-flight admission entry).
func (j *Journal) Put(job Job) error {
	if err := j.persist(&job, true); err != nil {
		return err
	}
	j.mu.Lock()
	j.jobs[job.Key] = &entry{job: job}
	j.mu.Unlock()
	return nil
}

// Update applies f to the job record, persists the result durably, and
// returns the updated copy. If persisting fails the in-memory record
// keeps its previous value.
func (j *Journal) Update(key string, f func(*Job)) (Job, error) {
	return j.apply(key, f, true)
}

// Publish applies f to the in-memory record only — for state running,
// which recovery cannot tell from queued. The next durable Update of the
// job carries the change to disk with it.
func (j *Journal) Publish(key string, f func(*Job)) {
	j.apply(key, f, false)
}

func (j *Journal) apply(key string, f func(*Job), durable bool) (Job, error) {
	j.mu.RLock()
	e, ok := j.jobs[key]
	j.mu.RUnlock()
	if !ok {
		return Job{}, fmt.Errorf("server: update unknown job %s", key)
	}
	e.write.Lock()
	defer e.write.Unlock()
	next := e.job
	f(&next)
	if durable {
		if err := j.persist(&next, false); err != nil {
			return Job{}, err
		}
	}
	j.mu.Lock()
	e.job = next
	j.mu.Unlock()
	return next, nil
}

// save is the production persist step. New job directories get the full
// treatment: MkdirAll, the atomic record write (which fsyncs the job
// directory), then an fsync of jobs/ itself so the directory entry
// survives power loss too.
func (j *Journal) save(job *Job, create bool) error {
	dir := j.Dir(job.Key)
	if create {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("server: create job dir: %w", err)
		}
	}
	if err := checkpoint.Save(filepath.Join(dir, jobFile), jobKind, jobVersion, job); err != nil {
		return err
	}
	if create {
		return checkpoint.SyncDir(j.dir)
	}
	return nil
}
