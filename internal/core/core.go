// Package core implements ANDURIL's Explorer (§5): the feedback-driven
// search over the fault space for the root-cause fault and timing.
//
// A reproduction run follows the workflow of §3: one free run of the
// workload collects the normal log and the dynamic fault-instance timeline;
// the failure log is diffed against it to extract relevant observables
// (§5.1); the static causal graph supplies spatial distances from fault
// sites to observables (§5.2.2); the free-run timeline, aligned onto the
// failure log's timeline, supplies temporal distances for fault instances
// (§5.2.3); and each unsuccessful injection feeds back into observable
// priorities (§5.2.1, Algorithm 2). Candidate instances are injected
// through a flexible priority window (§5.2.5).
//
// The package also implements the ablation variants of §8.3 and §5.2.4 and
// the comparison systems of §8.4 (FATE, CrashTuner, stacktrace-injector,
// plus a chaos-style random injector): all fourteen strategies are rows of
// one table (strategies.go) run through one round loop (feedback.go).
package core

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"anduril/internal/analysis"
	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logging"
	"anduril/internal/oracle"
	"anduril/internal/trace"
)

// Strategy selects the exploration algorithm.
type Strategy string

// Addressing selects how injection plans name dynamic fault instances.
type Addressing string

// Addressing modes. AddrOccurrence is the paper's (site, occurrence)
// currency: instance j of site i is "the j-th time the run reaches i".
// AddrPath is distributed execution indexing: an instance is named by its
// position in the distributed call tree — the chain of message-send edges
// from the workload root down to the reach, e.g.
// "client.put>coord.write[2]>dyn.store.persist#1". Path addresses are
// stable across runs whose interleavings shuffle global occurrence
// numbers, at the cost of per-reach path bookkeeping.
const (
	AddrOccurrence Addressing = "occurrence"
	AddrPath       Addressing = "path"
)

// Strategies. FullFeedback is complete ANDURIL; the next five are the
// ablation variants of §8.3; the next four are the §8.4 baselines; the last
// four are full feedback with one §5.2.4 design choice changed.
const (
	FullFeedback      Strategy = "full-feedback"
	Exhaustive        Strategy = "exhaustive-instance"
	SiteDistance      Strategy = "site-distance"
	SiteDistanceLimit Strategy = "site-distance-limit"
	SiteFeedback      Strategy = "site-feedback"
	MultiplyFeedback  Strategy = "multiply-feedback"
	FATE              Strategy = "fate"
	CrashTuner        Strategy = "crashtuner"
	StackTrace        Strategy = "stacktrace"
	Random            Strategy = "random"
	SumAggregation    Strategy = "sum-aggregation"
	TemporalByOrder   Strategy = "temporal-by-order"
	FixedWindow       Strategy = "fixed-window"
	GlobalDiff        Strategy = "global-diff"
)

// Target is one failure to reproduce: the inputs of §2.
//
// A Target is read-only during Reproduce: the explorer only reads its
// fields and derives all mutable search state internally, so one Target
// may back any number of concurrent Reproduce/Verify calls (the parallel
// evaluation harness relies on this). The contract extends to the field
// values — Workload must build a fresh system into the Env it is handed
// and Oracle.Check must only inspect the Result it receives; neither may
// capture mutable state shared across rounds. Both are handed memory the
// search recycles: the Env and the *cluster.Result are valid only for the
// duration of the trial and of the Check call, and nothing may keep them.
type Target struct {
	ID          string // dataset id, e.g. "f17"
	Issue       string // upstream issue, e.g. "HB-25905"
	System      string
	Description string

	Workload cluster.Workload
	Horizon  des.Time
	Oracle   oracle.Oracle

	// FailureLog is the parsed production log from the uninstrumented
	// deployment.
	FailureLog []logging.Entry

	// Analysis is the static causal graph et al. for the target system.
	Analysis *analysis.Result

	// RootSite is the ground-truth root-cause site, used only for rank
	// tracking (Figure 6) and reporting — never by the search itself.
	RootSite string

	// FaultClasses are the fault classes the search explores for this
	// target by default ("site", "env", "pair", "partial"); unset means
	// site-only, the paper's fault space. Options.FaultClasses overrides
	// per run.
	FaultClasses []string
}

// Options tune the explorer.
type Options struct {
	Strategy  Strategy
	Window    int   // initial flexible-window size k (§5.2.5); default DefaultWindow
	Adjust    int   // observable priority adjustment s (§5.2.1); default DefaultAdjust
	MaxRounds int   // round cap; default DefaultMaxRounds
	Seed      int64 // master seed; round r runs with Seed+r

	// FaultClasses selects which fault classes the search explores, by
	// name: ClassSite, ClassEnv, ClassPartial, ClassPair. Unset (nil or
	// empty) defaults to the target's FaultClasses, and site-only — the
	// paper's fault space — when the target declares none; an unknown name
	// fails the search with Report.Error. The enabled classes are searched
	// one at a time in table order, each through both its passes, so
	// enabling a later class never perturbs an earlier class's search;
	// DESIGN.md ("The fault-class table") describes the classes and order.
	FaultClasses []string

	// Addressing selects how candidate instances are named in plans:
	// AddrOccurrence (the default) uses the (site, occurrence) pairs of
	// the paper, AddrPath uses distributed execution indexing (canonical
	// call-path strings). Path addressing is seed-stable: the same
	// failure reproduces at the same address across runs even when
	// interleaving shifts renumber global occurrences.
	Addressing Addressing

	// RunsPerRound re-executes an unsuccessful injection under extra seeds
	// and feeds back the combined logs — the §6 mitigation for runs whose
	// internal concurrency makes crucial log messages probabilistic.
	// Default 1 (the paper's base algorithm).
	RunsPerRound int

	// Context, when non-nil, cancels the search from outside: the engine
	// checks it between rounds and the DES kernel polls it inside runs.
	// A cancelled search returns with Report.Interrupted set and emits no
	// trace outcome. Nothing of it is kept: a search is a pure function of
	// its Target and Options, so an interrupted one is run again.
	Context context.Context

	// Trace receives the structured event stream of the search: free-run
	// setup, per-round ranked-site snapshots, injection decisions, feedback
	// deltas and the terminal outcome. Events carry only seed-determined
	// data, so the stream is byte-identical for a fixed (Target, Options).
	// nil (the default) disables tracing at zero cost: the engine checks
	// the sink before building any event.
	Trace trace.Sink
}

// OptionError reports an option value from outside the program (a CLI
// flag, a server spec) that no search can run with. Option is the option's
// snake_case name — a server spec's JSON key, and a CLI flag once its
// underscores are hyphens — so each front end reports the error in its own
// vocabulary while the rule lives here once.
type OptionError struct {
	Option  string
	Problem string
}

func (e *OptionError) Error() string { return e.Option + ": " + e.Problem }

// Validate checks options a front end built from explicit input, before
// any search runs. The bounds every front end sets — MaxRounds, Window,
// Adjust — must be positive as given (an explicit -window 0 is a typo,
// not a request for the default), RunsPerRound may be zero (unset), the
// seed must be nonzero (a server spec's zero seed means its default, 1, so
// no front end may search seed 0), and the strategy, fault classes and
// addressing mode must be known names.
// Library callers who leave fields zero for the defaults need not call it.
func (o Options) Validate() error {
	if _, err := strategyByName(o.Strategy); err != nil {
		return &OptionError{"strategy", fmt.Sprintf("unknown strategy %q (valid: %v)", o.Strategy, AllStrategies())}
	}
	for _, b := range []struct {
		option string
		v      int
	}{{"max_rounds", o.MaxRounds}, {"window", o.Window}, {"adjust", o.Adjust}} {
		if b.v <= 0 {
			return &OptionError{b.option, fmt.Sprintf("must be positive (got %d)", b.v)}
		}
	}
	if o.Seed == 0 {
		return &OptionError{"seed", "must be nonzero"}
	}
	if o.RunsPerRound < 0 {
		return &OptionError{"runs_per_round", fmt.Sprintf("must not be negative (got %d)", o.RunsPerRound)}
	}
	for _, c := range o.FaultClasses {
		if _, err := classSetOf(c); err != nil {
			return &OptionError{"fault_classes", fmt.Sprintf("unknown fault class %q (valid: %v)", c, allClasses.names())}
		}
	}
	if a := o.Addressing; a != "" && a != AddrOccurrence && a != AddrPath {
		return &OptionError{"addressing", fmt.Sprintf("unknown addressing mode %q (valid: %s, %s)", a, AddrOccurrence, AddrPath)}
	}
	return nil
}

// SplitFaultClasses parses a comma-separated fault-class list as the CLIs
// accept it: names are trimmed, empty items dropped, and an empty list is
// nil (unset: the target's own classes). Names are not checked here;
// Options.Validate does that.
func SplitFaultClasses(s string) []string {
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

func (o Options) withDefaults() Options {
	if o.Strategy == "" {
		o.Strategy = FullFeedback
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Adjust <= 0 {
		o.Adjust = DefaultAdjust
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	if o.RunsPerRound <= 0 {
		o.RunsPerRound = 1
	}
	if o.Addressing == "" {
		o.Addressing = AddrOccurrence
	}
	return o
}

// The defaults of a search that sets none, and of every front end's flags:
// the round cap (the paper's 24-hour analog), the initial flexible-window
// size k and the observable priority adjustment s.
const (
	DefaultMaxRounds = 500
	DefaultWindow    = 10
	DefaultAdjust    = 1
)

// Round records one injection round.
type Round struct {
	N          int
	Injected   *inject.Instance // nil when no candidate occurred
	Satisfied  bool
	RootRank   int // 1-based rank of Target.RootSite (Figure 6); 0 if no candidate or unranked
	MissingObs int // relevant observables still missing after this round
	WindowSize int
	InitTime   time.Duration // priority computation before the run
	RunTime    time.Duration // wall time of the workload run
	InjectReqs int           // injection requests the runtime received
	DecideTime time.Duration // total plan-decision latency in the run

	// Inconclusive marks a round whose trial could not be judged even
	// after one retry under the next derived seed; Failure carries the
	// class (cluster.ClassPanic, ClassEventBudget, ClassOracle). The round
	// contributed no feedback, but its injected instance (if any) counts
	// as tried so the search moves on.
	Inconclusive bool
	Failure      string `json:",omitempty"`
}

// Report is the outcome of a reproduction attempt.
type Report struct {
	Target     string
	Issue      string
	Strategy   Strategy
	Reproduced bool
	Rounds     int
	Script     *inject.Instance // deterministic reproduction plan (step 4.a)
	ScriptSeed int64            // the seed of the reproducing round: Exact(Script) under this seed replays deterministically

	// EnvRooted marks a reproduction whose script is an environment
	// fault (node crash, partition, message drop/delay) rather than an
	// error-return site.
	EnvRooted bool `json:",omitempty"`

	// PartialRooted marks a reproduction whose script is a partial
	// failure (short write, mid-append ENOSPC, torn rename, duplicated
	// delivery, eintr) rather than an error-return site.
	PartialRooted bool `json:",omitempty"`
	RoundLog      []Round
	Elapsed       time.Duration

	RelevantObservables int
	CandidateSites      int
	CandidateInstances  int
	FreeRunLogLines     int
	FreeRunTime         time.Duration

	// BestPartial is the injection whose round log came closest to the
	// failure log (fewest still-missing observables). When the search
	// fails, this is the §3 hint that the failure may need a second fault
	// on top of it (the pair class searches those).
	BestPartial        *inject.Instance
	BestPartialMissing int

	// Interrupted is set when Options.Context cancelled the search before
	// it finished. An interrupted report is not a verdict: run the search
	// again to get one.
	Interrupted bool `json:",omitempty"`

	// InconclusiveRounds counts rounds degraded by trial isolation (see
	// Round.Inconclusive).
	InconclusiveRounds int `json:",omitempty"`

	// Error is set when the search could not start at all: the free run
	// failed twice (e.g. the target panics without any injection).
	Error string `json:",omitempty"`

	// Reason says why a finished search ended, in the trace outcome's
	// vocabulary: trace.ReasonReproduced, ReasonExhausted (every candidate
	// tried twice), ReasonClassNotSearched (every candidate the strategy
	// arms tried, while an enabled class holds ones it never arms),
	// ReasonWindowUnreached (in the last enabled class's second pass, two
	// rounds in a row armed every candidate left and none occurred),
	// ReasonRoundCap or ReasonError (see Error). Empty on an interrupted report, which is not an ending.
	Reason string `json:",omitempty"`
}

// MedianInitTime returns the median per-round initialization time.
func (r *Report) MedianInitTime() time.Duration {
	return median(r.RoundLog, func(rd Round) time.Duration { return rd.InitTime })
}

// MedianRunTime returns the median per-round workload time.
func (r *Report) MedianRunTime() time.Duration {
	return median(r.RoundLog, func(rd Round) time.Duration { return rd.RunTime })
}

// MedianInjectReqs returns the median injection requests per round.
func (r *Report) MedianInjectReqs() int {
	return median(r.RoundLog, func(rd Round) int { return rd.InjectReqs })
}

// MeanDecisionLatency returns the mean latency of one injection decision.
func (r *Report) MeanDecisionLatency() time.Duration {
	var total time.Duration
	reqs := 0
	for _, rd := range r.RoundLog {
		total += rd.DecideTime
		reqs += rd.InjectReqs
	}
	if reqs == 0 {
		return 0
	}
	return total / time.Duration(reqs)
}

// median is the upper median of f over the rounds, zero when there are none.
func median[T cmp.Ordered](rounds []Round, f func(Round) T) T {
	if len(rounds) == 0 {
		return *new(T)
	}
	vals := make([]T, 0, len(rounds))
	for _, rd := range rounds {
		vals = append(vals, f(rd))
	}
	slices.Sort(vals)
	return vals[len(vals)/2]
}

// CanonicalReport renders a report as canonical JSON with every wall-clock
// measurement zeroed — the only fields two executions of the same
// deterministic search can disagree on. Any two finished runs of one
// (Target, Options) pair, however scheduled or re-run, produce
// byte-identical canonical reports; the server's soak and crash-recovery
// gates compare exactly these bytes.
func CanonicalReport(r *Report) ([]byte, error) {
	cp := *r
	cp.Elapsed, cp.FreeRunTime = 0, 0
	cp.RoundLog = make([]Round, len(r.RoundLog))
	for i, rd := range r.RoundLog {
		rd.InitTime, rd.RunTime, rd.DecideTime = 0, 0, 0
		cp.RoundLog[i] = rd
	}
	return json.Marshal(&cp)
}

// Reproduce searches for an injection that satisfies the target's oracle.
// It treats t as read-only (see Target), so concurrent calls may share one
// Target; the result depends only on (t, opts), never on scheduling.
func Reproduce(t *Target, opts Options) *Report {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return newEngine(t, opts.withDefaults(), ws).run()
}

// Replay runs a reproduction script's faults deterministically under seed
// and judges the result by t's oracle — workflow step 4.a. The replay is a
// trial like a search's: under the event budget, with a panic in the target
// or the oracle recovered. It returns the replay's result, which is the
// caller's, whether the oracle is satisfied, and, for a replay that cannot
// be judged, a *cluster.TrialError whose class says why (panic,
// event-budget or oracle); such a replay does not reproduce.
func Replay(t *Target, seed int64, faults ...inject.Instance) (*cluster.Result, bool, error) {
	return replay(nil, t, seed, faults)
}

// Verify is Replay's verdict alone, replayed in a recycled environment.
func Verify(t *Target, script inject.Instance, seed int64) bool {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	res, sat, err := replay(ws.env(), t, seed, []inject.Instance{script})
	if err == nil {
		ws.keep(res)
	}
	return sat
}

// replay is Replay in env (nil: a fresh one).
func replay(env *cluster.Env, t *Target, seed int64, faults []inject.Instance) (*cluster.Result, bool, error) {
	res, err := cluster.Run(nil, env, seed, inject.Exact(faults...), t.Workload, t.Horizon, 0)
	if err != nil {
		return res, false, err
	}
	sat, err := satisfied(t, res)
	return res, sat, err
}
