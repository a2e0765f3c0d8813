package server

// Job lifecycle. A job moves through a small state machine. Every
// transition recovery can tell apart is one durability point — job.json
// is an atomic checkpoint envelope, written and fsynced BEFORE the change
// is published in memory — so a kill at any instant leaves a record the
// next daemon start can act on:
//
//	queued  ──start──▶ running ──success──▶ done
//	  ▲                  │ │
//	  │   restart        │ └──failure──▶ failed
//	  └──(re-admit)──────┘
//
//   - queued: journaled and waiting for a worker. Restart re-admits it.
//   - running: a worker is executing the search, its trace held in
//     memory. Published in memory only: restart re-admits queued and
//     running alike and runs the search again from its spec, so the start
//     of a job is not worth an fsync. A record on disk says running only
//     when a later durable write (a resubmission's Submissions++) carried
//     it there.
//   - done: the search finished; report.json holds the final report,
//     trace.jsonl the complete trace. Terminal — once both are there: the
//     completion commit makes the trace's, the report's and the record's
//     renames durable with one directory fsync, so a power loss may keep
//     the record's alone, and restart re-admits a done job whose report
//     does not load or whose trace is missing.
//   - failed: the search could not produce a report — the free run itself
//     failed, the executor panicked, or the completion commit's I/O did.
//     Terminal after one execution, because a search is a pure function of
//     its spec: running it again fails again, and a search that did not
//     would be a determinism bug a retry would hide. Error says why. To run
//     a failed job again, remove <data>/jobs/<key> and resubmit.
//
// A graceful drain interrupts running jobs and keeps nothing of them: the
// next start re-admits them and runs each again from its spec. Every
// accepted job is cheap to re-run, because admission bounds its trials
// (Spec.Validate).

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is the journaled record of one reproduction job. The artifacts —
// trace and report — live next to it in the job directory; the record
// itself carries only identity, lifecycle and result summary.
type Job struct {
	// Key is the content address of Spec; it names the job directory.
	Key string `json:"key"`

	// Spec is the normalized reproduction request.
	Spec Spec `json:"spec"`

	State string `json:"state"`

	// Submissions counts how many times this spec was submitted; all
	// submissions past the first deduplicated onto the existing job.
	Submissions int `json:"submissions"`

	// Error says why the job failed.
	Error string `json:"error,omitempty"`

	// Result summary, set when State is done. The full report is in
	// report.json.
	Reproduced bool `json:"reproduced,omitempty"`
	Rounds     int  `json:"rounds,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool {
	return j.State == StateDone || j.State == StateFailed
}
