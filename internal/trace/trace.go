// Package trace is a structured, deterministic event stream for one
// explorer search (one core.Reproduce call).
//
// The explorer's search state — observable priorities I_k, site priorities
// F_i, flexible-window growth and each round's decision (one round event
// per round that runs, for every strategy row) — is otherwise invisible
// outside the final Report. A trace makes every decision explainable
// ("why did this run take N rounds?") and regression-testable: events
// carry only seed-determined data (no wall clock), so the stream for a
// fixed (Target, Options) is byte-identical run to run and across any
// worker count of the evaluation harness.
//
// Events are emitted through a Sink threaded via core.Options.Trace. The
// default is nil: the engine checks the sink before building an event, so
// a disabled trace costs nothing on the decision hot path. Writer emits
// JSONL — one encoding/json encoding of an Event per line, as Line renders
// it; Memory retains the events, and AggregateStats counts over them.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// EventType discriminates the events of one search.
type EventType string

// Event types, in the order they can appear in a stream.
const (
	// FreeRun reports workflow steps 1-2: the free run's log size, the
	// relevant observables diffed out of the failure log, and the candidate
	// fault sites with their dynamic instance counts.
	FreeRun EventType = "free_run"
	// RoundStart records the decision of a round that runs, once its
	// selection is made and before its trial: the window, the candidates
	// handed to the runtime and their count, and — for a priority row —
	// the root rank and the top-K ranked sites with their priorities F_i,
	// best observable and tried counts. Every row emits it, one per round.
	RoundStart EventType = "round"
	// SecondPass records a round at which a fault class's first pass ended —
	// its selection found no untried candidate of the class, or two rounds in
	// a row injected nothing on a window their selection did not fill: the
	// class's tried sets were cleared, the window reset, and the round
	// selected again. It precedes its round's RoundStart, which carries the
	// reset window and tried counts. Only the last enabled class's second
	// pass ends a search as fault-space-exhausted or window-unreached.
	SecondPass EventType = "second_pass"
	// Injected records the reach at which the round's fault fired, for
	// every fault class: a reader decodes the class and its operands from
	// the site ID, and a pair's members from Path, with package inject.
	Injected EventType = "injected"
	// WindowGrow records an empty round: no candidate occurred, so the
	// flexible window doubled — or held, when the round's selection did not
	// fill it (From == To).
	WindowGrow EventType = "window_grow"
	// Feedback records Algorithm 2 after an unsuccessful round: how many
	// observables are still missing and which observable priorities I_k
	// were adjusted. The site priorities F_i they move are the next
	// round's ranking.
	Feedback EventType = "feedback"
	// Inconclusive records a round whose trial could not be judged: the
	// target panicked, the event-budget watchdog fired, or the oracle
	// errored — twice, since the engine retries once under the next derived
	// seed before degrading. The round feeds nothing back; the search
	// continues.
	Inconclusive EventType = "inconclusive"
	// Outcome terminates the stream: reproduced or not, rounds used, and
	// which guard ended the search. An interrupted (cancelled) search emits
	// NO outcome: it stopped, it did not end.
	Outcome EventType = "outcome"
)

// EventTypes lists every event type, in the order above.
var EventTypes = []EventType{
	FreeRun, RoundStart, SecondPass, Injected, WindowGrow, Feedback, Inconclusive, Outcome,
}

// Outcome reasons. A search ends ReasonWindowUnreached when the last
// enabled class's second pass ended on two rounds in a row that armed every
// candidate left and injected nothing.
const (
	ReasonReproduced       = "reproduced"
	ReasonExhausted        = "fault-space-exhausted"
	ReasonClassNotSearched = "class-not-searched"
	ReasonRoundCap         = "round-cap"
	ReasonWindowUnreached  = "window-unreached"
	ReasonError            = "trial-error"
)

// Float is a JSON-safe float64: infinities (an unreachable site's F_i)
// marshal as the strings "+inf"/"-inf" instead of breaking encoding/json.
type Float float64

// MarshalJSON renders finite values with strconv's shortest form.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts both the numeric and the "+inf"/"-inf" forms.
func (f *Float) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = Float(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// SiteCount pairs a fault site with its dynamic instance count (FreeRun).
type SiteCount struct {
	Site      string `json:"site"`
	Instances int    `json:"instances"`
}

// SiteRank is one row of a RoundStart top-K snapshot.
type SiteRank struct {
	Site    string `json:"site"`
	F       Float  `json:"f"`
	BestObs string `json:"best_obs,omitempty"`
	Tried   int    `json:"tried"`
}

// Candidate names one dynamic instance in a RoundStart window: the
// (site, occurrence) pair plus — under path addressing — the canonical
// call-path string.
type Candidate struct {
	Site string `json:"site"`
	Occ  int    `json:"occ"`
	Path string `json:"path,omitempty"`
}

// ObsPriority reports one observable's feedback priority I_k after an
// adjustment.
type ObsPriority struct {
	Obs      string `json:"obs"`
	Priority int    `json:"priority"`
}

// Event is one trace record. Exactly the fields of its Type are set; the
// rest stay zero and are omitted from the JSONL encoding. Field order is
// fixed by this declaration, which is what makes the encoding
// deterministic; a new field is one line here, with omitempty so committed
// traces keep their bytes. Events never carry wall-clock measurements —
// everything here is a function of (Target, Options.Seed) only.
type Event struct {
	Type  EventType `json:"event"`
	Round int       `json:"round,omitempty"`

	// FreeRun.
	Target      string      `json:"target,omitempty"`
	Strategy    string      `json:"strategy,omitempty"`
	Seed        int64       `json:"seed,omitempty"`
	LogLines    int         `json:"log_lines,omitempty"`
	Observables []string    `json:"observables,omitempty"`
	Sites       []SiteCount `json:"sites,omitempty"`

	// RoundStart: the window, the root rank and top-K ranking of a
	// priority row, and the first Candidates entries of the window (capped
	// at MaxCandidates) with the full count.
	Window         int         `json:"window,omitempty"`
	RootRank       int         `json:"root_rank,omitempty"`
	Top            []SiteRank  `json:"top,omitempty"`
	Candidates     []Candidate `json:"candidates,omitempty"`
	CandidateCount int         `json:"candidate_count,omitempty"`

	// Injected. Path carries the canonical call-path address under path
	// addressing, and a pair's two member references in either mode.
	Site      string `json:"site,omitempty"`
	Occ       int    `json:"occ,omitempty"`
	Path      string `json:"path,omitempty"`
	Satisfied bool   `json:"satisfied,omitempty"`

	// WindowGrow.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`

	// Feedback.
	Missing int           `json:"missing,omitempty"`
	Bumped  []ObsPriority `json:"bumped,omitempty"`

	// Inconclusive: the failure class (cluster.Class*) and detail, plus
	// the subject identifiers of the failed trial — the seed it ran
	// under and, for panics, the actor (node thread) that was executing.
	Class  string `json:"class,omitempty"`
	Detail string `json:"detail,omitempty"`
	Actor  string `json:"actor,omitempty"`

	// Outcome.
	Reproduced bool   `json:"reproduced,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	Reason     string `json:"reason,omitempty"`
	ScriptSeed int64  `json:"script_seed,omitempty"`
}

// MaxCandidates caps the Candidates listing of a RoundStart event. The
// window can grow to the whole fault space; listing every member would
// bloat traces without aiding explanation. CandidateCount always carries
// the full size.
const MaxCandidates = 10

// TopK is how many ranked sites a RoundStart snapshot carries.
const TopK = 8

// Sink receives the events of one search in emission order. Emit must not
// retain ev past the call (the engine may reuse it). Implementations need
// not be goroutine-safe: one search emits from one goroutine, and the
// evaluation harness gives every cell its own sink.
type Sink interface {
	Emit(ev *Event)
}

// Writer is a Sink encoding events as JSON Lines. Encode and write errors
// are sticky and reported by Err, so the search itself never fails on a
// bad trace destination.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer sink emitting JSONL to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Emit implements Sink.
func (s *Writer) Emit(ev *Event) {
	if s.err != nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		s.err = fmt.Errorf("trace: %w", err)
		return
	}
	_, s.err = s.w.Write(append(line, '\n'))
}

// Err returns the first encode or write error, if any.
func (s *Writer) Err() error { return s.err }

// Memory is a Sink that retains every event; AggregateStats counts over
// them. The zero value is ready to use.
type Memory struct {
	Events []Event
}

// Emit implements Sink.
func (m *Memory) Emit(ev *Event) { m.Events = append(m.Events, *ev) }

// Stats are aggregate counters over one or more traces.
type Stats struct {
	Events       map[EventType]int // events per type
	Rounds       int               // RoundStart events
	Injections   int               // Injected events
	EmptyRound   int               // WindowGrow events (no candidate occurred)
	Inconclusive int               // Inconclusive events (unjudgeable trials)
	Reproduced   bool              // any Outcome with Reproduced

	WindowSizes     map[int]int    // RoundStart window size -> rounds
	CandidateCounts map[int]int    // RoundStart candidate count -> rounds
	SiteTrials      map[string]int // injected site -> trials
}

// AggregateStats computes Stats over an event slice.
func AggregateStats(events []Event) Stats {
	s := Stats{
		Events:          map[EventType]int{},
		WindowSizes:     map[int]int{},
		CandidateCounts: map[int]int{},
		SiteTrials:      map[string]int{},
	}
	for i := range events {
		ev := &events[i]
		s.Events[ev.Type]++
		switch ev.Type {
		case RoundStart:
			s.Rounds++
			s.WindowSizes[ev.Window]++
			s.CandidateCounts[ev.CandidateCount]++
		case Injected:
			s.Injections++
			s.SiteTrials[ev.Site]++
		case WindowGrow:
			s.EmptyRound++
		case Inconclusive:
			s.Inconclusive++
		case Outcome:
			if ev.Reproduced {
				s.Reproduced = true
			}
		}
	}
	return s
}

// ReadAll decodes a JSONL trace stream.
func ReadAll(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// Line renders an event's canonical JSONL form (no trailing newline). An
// event encoding/json rejects (a NaN Float) renders as the error instead.
func Line(ev *Event) string {
	line, err := json.Marshal(ev)
	if err != nil {
		return "trace: " + err.Error()
	}
	return string(line)
}

// AppendEvent appends Line(ev) to dst.
//
// Deprecated: use Line. Kept only because the frozen benchmark harness
// (bench/probes.go) calls it; nothing else in the module does.
func AppendEvent(dst []byte, ev *Event) []byte { return append(dst, Line(ev)...) }

// Diff compares two event streams and describes the first maxDiffs
// divergences ("-" = only in a, "+" = only in b). An empty result means
// the streams are identical.
func Diff(a, b []Event, maxDiffs int) []string {
	if maxDiffs <= 0 {
		maxDiffs = 10
	}
	var out []string
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n && len(out) < maxDiffs; i++ {
		switch {
		case i >= len(a):
			out = append(out, fmt.Sprintf("event %d: + %s", i+1, Line(&b[i])))
		case i >= len(b):
			out = append(out, fmt.Sprintf("event %d: - %s", i+1, Line(&a[i])))
		default:
			la, lb := Line(&a[i]), Line(&b[i])
			if la != lb {
				out = append(out, fmt.Sprintf("event %d:\n- %s\n+ %s", i+1, la, lb))
			}
		}
	}
	return out
}
