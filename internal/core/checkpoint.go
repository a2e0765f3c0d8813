package core

// Checkpoint/resume for the explorer search. The engine periodically
// serializes its mutable search state — completed round, flexible-window
// size, observable feedback priorities I_k, the tried set, and the
// accumulated Report — and hands it to Options.Checkpoint; it does no I/O
// of its own. CheckpointFile is the sink that keeps it in an atomically
// written, versioned envelope (internal/checkpoint). Resume rebuilds
// everything else from scratch: the free run, observables, candidate sites,
// and distances are all deterministic functions of (Target, Options.Seed),
// and every round r runs under Seed+r, so a restored search continues
// exactly where the interrupted one stopped and produces the identical
// trace suffix and final report.
//
// The equivalence contract: interrupt a search at a checkpoint boundary
// (StopAfterRound a multiple of CheckpointEvery, or an external kill right
// after a checkpoint), resume it, and the concatenation of the two JSONL
// traces is byte-identical to the uninterrupted run's trace — an
// interrupted search emits no outcome event, so its trace is a pure
// prefix. A kill between checkpoints loses only the rounds after the last
// one: resume re-executes them (deterministically), so the final report is
// still identical, but the concatenated trace repeats those rounds.

import (
	"encoding/json"
	"fmt"

	"anduril/internal/checkpoint"
)

// Checkpoint is the search state after Round completed rounds, as
// Options.Checkpoint receives it and Resume continues from it. State is the
// versioned payload — the bytes a checkpoint file's envelope carries — and
// is all Resume reads; Round repeats the payload's round for a sink that
// orders the checkpoint against its other writes (the server's trace
// journal) without decoding it.
type Checkpoint struct {
	Round int
	State json.RawMessage
}

// CheckpointFile is the Options.Checkpoint sink that keeps the latest
// checkpoint in the file at path, atomically and durably replaced on every
// call.
func CheckpointFile(path string) func(Checkpoint) error {
	return func(ck Checkpoint) error {
		return checkpoint.Save(path, searchKind, searchVersion, ck.State)
	}
}

// LoadCheckpoint reads the file a CheckpointFile sink wrote. A missing,
// torn or corrupt file, or one from another checkpoint version, is an
// error; of the payload only the round is decoded here, the rest by Resume.
func LoadCheckpoint(path string) (Checkpoint, error) {
	state, err := checkpoint.Load(path, searchKind, searchVersion)
	if err != nil {
		return Checkpoint{}, err
	}
	var head struct{ Round int } // the payload's "round"
	if err := json.Unmarshal(state, &head); err != nil {
		return Checkpoint{}, fmt.Errorf("core: decode checkpoint %s: %w", path, err)
	}
	return Checkpoint{Round: head.Round, State: state}, nil
}

// searchKind and searchVersion identify the explorer checkpoint envelope.
// Version 3 added the partial fault class (a version-2 tried set may lack
// partial occurrence counters a version-3 search would have accumulated);
// version 2 added the addressing field and the pair fault class; version
// 1 envelopes predate path-sensitive addressing. Older versions are
// rejected loudly by the envelope layer rather than resumed into a
// different search.
const (
	searchKind    = "explorer-search"
	searchVersion = 3
)

// searchState is the serialized form of the engine's mutable search state
// after a completed round. Everything not here is reconstructed by the
// resumed free run.
type searchState struct {
	Target   string   `json:"target"`
	Strategy Strategy `json:"strategy"`
	Seed     int64    `json:"seed"`

	Round    int `json:"round"`  // completed rounds; resume starts at Round+1
	Window   int `json:"window"` // flexible-window size for the next round
	ObsCount int `json:"obs_count"`

	// FaultClasses records the resolved fault classes of the run in
	// canonical order; resuming with a different class set would search a
	// different space. Absent (nil) in pre-env checkpoints = site-only.
	FaultClasses []string `json:"fault_classes,omitempty"`

	// Addressing records the run's instance-addressing mode; absent means
	// occurrence addressing, the canonical default. Resuming a
	// path-addressed search in occurrence mode (or vice versa) would match
	// the tried set against different instance identities.
	Addressing string `json:"addressing,omitempty"`

	// Adjust and RunsPerRound record the run's feedback step and combined-log
	// runs; absent means 1, the default, so a checkpoint of a default search
	// keeps the form it had before they were recorded. Resuming under another
	// value would continue a different search.
	Adjust       int `json:"adjust,omitempty"`
	RunsPerRound int `json:"runs_per_round,omitempty"`

	// Priorities are the feedback priorities I_k in observable order (the
	// deterministic order setup extracts them in).
	Priorities []int `json:"priorities"`

	// Tried maps site id -> sorted tried occurrences.
	Tried map[string][]int `json:"tried"`

	Report *Report `json:"report"`
}

// checkpoint hands the state after the given completed round to the sink,
// when there is one. Best-effort: the first failure is recorded on the
// report and the search continues.
func (e *engine) checkpoint(round int) {
	if e.o.Checkpoint == nil {
		return
	}
	state, err := json.Marshal(e.snapshotState(round))
	if err == nil {
		err = e.o.Checkpoint(Checkpoint{Round: round, State: state})
	}
	if err != nil && e.report.CheckpointError == "" {
		e.report.CheckpointError = err.Error()
	}
}

// snapshotState captures the engine's mutable state in serializable form.
// The report is snapshotted with Interrupted cleared: the flag describes
// the dying run, not the checkpointed state, and the forced final
// checkpoint of an interrupt is taken after the engine marked the report —
// persisting the flag would make the resumed run believe it too was
// interrupted and suppress its trace outcome.
func (e *engine) snapshotState(round int) *searchState {
	rep := *e.report
	rep.Interrupted = false
	st := &searchState{
		Target: e.t.ID, Strategy: e.o.Strategy, Seed: e.o.Seed,
		Round: round, Window: e.window,
		ObsCount:   len(e.obs),
		Priorities: make([]int, len(e.obs)),
		Tried:      map[string][]int{},
		Report:     &rep,
	}
	if e.classes != siteOnly { // site-only stays absent, the canonical pre-env form
		st.FaultClasses = e.classes.names()
	}
	if e.o.Addressing != AddrOccurrence {
		st.Addressing = string(e.o.Addressing)
	}
	if e.o.Adjust != 1 {
		st.Adjust = e.o.Adjust
	}
	if e.o.RunsPerRound != 1 {
		st.RunsPerRound = e.o.RunsPerRound
	}
	for i, o := range e.obs {
		st.Priorities[i] = o.priority
	}
	for _, s := range e.sites {
		if s.tried.Len() == 0 {
			continue
		}
		st.Tried[s.id] = s.tried.Occurrences()
	}
	return st
}

// validate checks the checkpoint belongs to this (target, options) pair —
// resuming under a different seed or strategy would silently produce a
// different search, so it is an error instead.
func (st *searchState) validate(t *Target, opts Options) error {
	want, err := resolveClasses(t, opts)
	if err != nil {
		return err
	}
	// A site-only checkpoint (classes absent) resumed with env enumeration
	// (or vice versa) would silently search a different space.
	got, err := classSetOf(st.FaultClasses...)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	switch {
	case st.Target != t.ID:
		return fmt.Errorf("core: checkpoint is for target %q, resuming %q", st.Target, t.ID)
	case st.Strategy != opts.Strategy:
		return fmt.Errorf("core: checkpoint used strategy %q, resuming with %q", st.Strategy, opts.Strategy)
	case st.Seed != opts.Seed:
		return fmt.Errorf("core: checkpoint used seed %d, resuming with %d", st.Seed, opts.Seed)
	case got != want:
		return fmt.Errorf("core: checkpoint searched fault classes %v, resuming with %v", got.names(), want.names())
	case st.addressing() != opts.Addressing:
		return fmt.Errorf("core: checkpoint used %s addressing, resuming with %s", st.addressing(), opts.Addressing)
	case orOne(st.Adjust) != opts.Adjust:
		return fmt.Errorf("core: checkpoint used adjust %d, resuming with %d", orOne(st.Adjust), opts.Adjust)
	case orOne(st.RunsPerRound) != opts.RunsPerRound:
		return fmt.Errorf("core: checkpoint used %d runs per round, resuming with %d", orOne(st.RunsPerRound), opts.RunsPerRound)
	case st.Round < 1:
		return fmt.Errorf("core: checkpoint has invalid round %d", st.Round)
	case st.Window < 1:
		return fmt.Errorf("core: checkpoint has invalid window %d", st.Window)
	case len(st.Priorities) != st.ObsCount:
		return fmt.Errorf("core: checkpoint carries %d priorities for %d observables", len(st.Priorities), st.ObsCount)
	case st.Report == nil:
		return fmt.Errorf("core: checkpoint has no report")
	}
	return nil
}

// addressing returns the checkpoint's recorded addressing mode, expanding
// the canonical absent form to the occurrence default.
func (st *searchState) addressing() Addressing {
	if st.Addressing == "" {
		return AddrOccurrence
	}
	return Addressing(st.Addressing)
}

// orOne expands a recorded knob's canonical absent form to its default, 1.
func orOne(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// applyState restores the checkpointed search state onto a prepared
// engine. The free run must have produced the same observable and site
// universe the checkpoint was taken against; a mismatch means the target
// or dataset changed under the checkpoint and is an error.
func (e *engine) applyState() error {
	st := e.resume
	if len(e.obs) != st.ObsCount {
		return fmt.Errorf("core: checkpoint expects %d observables, free run produced %d — target or dataset changed", st.ObsCount, len(e.obs))
	}
	for i, p := range st.Priorities {
		e.obs[i].priority = p
	}
	for site, occs := range st.Tried {
		s, ok := e.siteIndex[site]
		if !ok {
			return fmt.Errorf("core: checkpoint tried unknown site %q — target or dataset changed", site)
		}
		for _, occ := range occs {
			s.tried.Add(occ)
		}
	}
	e.startRound = st.Round
	e.window = st.Window
	e.report = st.Report
	return nil
}

// Resume continues a checkpointed search. opts must carry the strategy,
// seed, fault classes, addressing, Adjust and RunsPerRound the interrupted
// run used — the checkpoint records them, and a mismatch is an error; the
// window is restored from the checkpoint, and MaxRounds may differ: a
// search resumed under a higher cap continues as a search run under that
// cap from the start would have. ck names the last completed round, and
// the resumed search continues from the next one, producing the identical
// trace suffix and final report an uninterrupted run would have.
func Resume(t *Target, opts Options, ck Checkpoint) (*Report, error) {
	opts = opts.withDefaults()
	st := &searchState{}
	if err := json.Unmarshal(ck.State, st); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	if err := st.validate(t, opts); err != nil {
		return nil, err
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	e := newEngine(t, opts, ws)
	e.resume = st
	return e.run()
}
