// Package server turns the explorer into a daemon: reproduction as a
// service. Jobs arrive over HTTP as JSON specs, are journaled durably
// before they are acknowledged, and are queued by key for a fixed set of
// workers, each job inside its own panic boundary. A search is a pure function of its spec, so a
// killed, drained or restarted daemon keeps nothing of a running search:
// it re-admits every unfinished job and runs it again, producing the
// byte-identical trace and report an uninterrupted run would have.
// Admission bounds each job's trials, so every re-run is cheap.
//
// The durability chain, bottom to top:
//
//   - internal/checkpoint writes atomic, fsynced, rename-committed
//     envelopes (temp file + fsync + rename + parent-dir fsync).
//   - Each job's record (job.json) and final report (report.json) are
//     such envelopes inside the job's own directory <data>/jobs/<key>/.
//   - The trace (trace.jsonl) is held in memory while the search runs and
//     written once, beside the report, in the completion commit.
//
// Jobs are content-addressed: the key is a hash of the normalized spec,
// so identical submissions — same failure, strategy, seed, fault
// classes, addressing and bounds — share one directory, one execution
// and one result, however many clients ask.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// Spec is a reproduction request: which failure to reproduce and how to
// search. The zero value of every field means "the default the anduril
// CLI would use", and Normalize makes those defaults explicit so that
// two specs asking for the same search hash to the same job key.
type Spec struct {
	// Failure is the dataset id of the failure to reproduce ("f4").
	// Required; it determines the target system, workload, failure log
	// and oracle.
	Failure string `json:"failure"`

	Strategy string `json:"strategy,omitempty"` // default full-feedback
	Seed     int64  `json:"seed,omitempty"`     // master seed; default 1

	MaxRounds    int `json:"max_rounds,omitempty"`     // round cap; default core.DefaultMaxRounds
	Window       int `json:"window,omitempty"`         // initial flexible window k; default core.DefaultWindow
	Adjust       int `json:"adjust,omitempty"`         // priority adjustment s; default core.DefaultAdjust
	RunsPerRound int `json:"runs_per_round,omitempty"` // extra seeds per round; default 1

	// FaultClasses widens the fault space ("site", "env", "pair",
	// "partial"); empty means the failure's own classes.
	FaultClasses []string `json:"fault_classes,omitempty"`

	// Addressing is the instance-addressing mode: "occurrence" (default)
	// or "path".
	Addressing string `json:"addressing,omitempty"`
}

// specKeyPrefix versions the key derivation. Bump it if Normalize or the
// Spec encoding changes meaning, so old job directories are never
// mistaken for the new scheme's.
const specKeyPrefix = "anduril-job-v1\n"

// Normalize returns the spec in canonical form: defaults made explicit,
// fault classes sorted and deduplicated, seed-stream fields untouched.
// Key and the dedupe machinery only ever see normalized specs.
func (sp Spec) Normalize() Spec {
	if sp.Strategy == "" {
		sp.Strategy = string(core.FullFeedback)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.MaxRounds == 0 {
		sp.MaxRounds = core.DefaultMaxRounds
	}
	if sp.Window == 0 {
		sp.Window = core.DefaultWindow
	}
	if sp.Adjust == 0 {
		sp.Adjust = core.DefaultAdjust
	}
	if sp.RunsPerRound == 0 {
		sp.RunsPerRound = 1
	}
	if sp.Addressing == "" {
		sp.Addressing = string(core.AddrOccurrence)
	}
	if len(sp.FaultClasses) > 0 {
		classes := append([]string(nil), sp.FaultClasses...)
		sort.Strings(classes)
		dedup := classes[:1]
		for _, c := range classes[1:] {
			if c != dedup[len(dedup)-1] {
				dedup = append(dedup, c)
			}
		}
		sp.FaultClasses = dedup
	} else {
		sp.FaultClasses = nil
	}
	return sp
}

// maxJobTrials bounds the trials of one job, max_rounds × runs_per_round,
// so that every accepted job is cheap to re-run from its spec after a crash
// or a drain (DESIGN.md, "Bounded jobs").
const maxJobTrials = 2000

// Validate checks a normalized spec against the registries and bounds
// the CLI enforces with usage errors, plus one the CLI does not:
// maxJobTrials. Invalid specs are rejected at admission — they never
// become jobs.
func (sp Spec) Validate() error {
	if sp.Failure == "" {
		return fmt.Errorf("spec: failure id required")
	}
	if _, ok := failures.ByID(sp.Failure); !ok {
		return fmt.Errorf("spec: unknown failure %q", sp.Failure)
	}
	// The option rules are the explorer's own (core.Options.Validate names
	// the offending option by its JSON key here).
	if err := sp.Options().Validate(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if runs := max(sp.RunsPerRound, 1); sp.MaxRounds > maxJobTrials/runs {
		return fmt.Errorf("spec: max_rounds × runs_per_round must be at most %d (got %d × %d)",
			maxJobTrials, sp.MaxRounds, runs)
	}
	return nil
}

// Key is the job's content address: a hex SHA-256 over the normalized
// spec's canonical JSON. Two submissions asking for the same search —
// same target, failure log (implied by the failure id), strategy, seed,
// bounds, fault classes and addressing — produce the same key and
// therefore share one job, one execution, and one set of artifacts.
func (sp Spec) Key() string {
	raw, err := json.Marshal(sp.Normalize())
	if err != nil {
		// A Spec is plain data; Marshal cannot fail. Keep the signature
		// clean and make the impossible loud.
		panic(fmt.Sprintf("server: encode spec: %v", err))
	}
	sum := sha256.Sum256(append([]byte(specKeyPrefix), raw...))
	return hex.EncodeToString(sum[:])
}

// Options translates a normalized spec into the explorer options the
// anduril CLI builds from the same flags, so a job's trace and report are
// the CLI's bytes. The server's executor and any serial comparator
// (andurilctl soak, the CI gates) MUST both go through this function:
// report byte-identity across daemon and serial runs depends on the option
// sets matching exactly.
func (sp Spec) Options() core.Options {
	return core.Options{
		Strategy:     core.Strategy(sp.Strategy),
		Seed:         sp.Seed,
		MaxRounds:    sp.MaxRounds,
		Window:       sp.Window,
		Adjust:       sp.Adjust,
		RunsPerRound: sp.RunsPerRound,
		FaultClasses: sp.FaultClasses,
		Addressing:   core.Addressing(sp.Addressing),
	}
}
