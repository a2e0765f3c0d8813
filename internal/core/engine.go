package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/trace"
)

// observable is one relevant observable o_k (§5.1): a log message that only
// appears in the failure log, with its positions on the failure timeline,
// its matching static templates, and its feedback priority I_k.
type observable struct {
	key       logdiff.Key
	keyIdx    int // the key's number in the prepared failure log (engine.failure)
	positions []int
	templates []string
	priority  int
}

// instance is one dynamic fault candidate f_{i,j} from the free run.
type instance struct {
	occ        int
	alignedPos float64        // position mapped onto the failure-log timeline
	addr       inject.PathKey // path identity in the free run (path addressing only)
}

// triedSet tracks which occurrences of a site have been injected. It is a
// dense bitset: occurrence numbers are small (bounded by how often the
// site fires in a run), and the selection loop probes the set for every
// untried instance on every round, so the constant-time word test replaces
// a map probe on the search hot path. The zero value is an empty set.
type triedSet struct {
	words []uint64
	n     int
}

// Has reports whether occ is in the set.
func (t *triedSet) Has(occ int) bool {
	w := occ >> 6
	return w < len(t.words) && t.words[w]&(1<<(uint(occ)&63)) != 0
}

// Add inserts occ.
func (t *triedSet) Add(occ int) {
	w := occ >> 6
	for w >= len(t.words) {
		t.words = append(t.words, 0)
	}
	bit := uint64(1) << (uint(occ) & 63)
	if t.words[w]&bit == 0 {
		t.words[w] |= bit
		t.n++
	}
}

// Len returns the number of occurrences in the set.
func (t *triedSet) Len() int { return t.n }

// siteState is the explorer's view of one static fault site f_i. A pair
// site stores no instances: they are combinations of its members' (size,
// pairMembers), scanned where selection reads them.
type siteState struct {
	id        string
	instances []instance
	tried     triedSet

	// The class stamp, set when the site is enumerated (classes.go). class
	// is the fault class the site belongs to. dists are an error-return
	// site's causal-graph distances, template -> L (nil otherwise). synth
	// is the synthetic spatial distance of a pseudo-site with no graph node
	// (zero otherwise). marker is the sanitized injection-marker line of an
	// env or partial pseudo-site ("" otherwise): an observable equal to it
	// is direct failure-log evidence for this site, scored distMatched.
	// members are a pair pseudo-site's two member sites (sorted by id, the
	// same site twice for a self-pair). near is a pair donor's distance from
	// each of its instances to the nearest relevant observable (nil on a
	// site no pair has as a member).
	class   classID
	dists   map[string]int
	synth   float64
	marker  string
	members [2]*siteState
	near    []float64

	// paths caches, by occurrence, the canonical path strings rendered so
	// far (path addressing only) — only instances that were armed into a
	// window, alone or as a pair member, ever have one.
	paths map[int]string

	f       float64 // current priority F_i (smaller = higher priority)
	bestObs int     // index of the observable realizing F_i

	pick pickMemo // bestUntried's last answer and the inputs it read
}

// engine holds all mutable search state for one Reproduce call. A fresh
// engine is built per call and never shared, so concurrent Reproduce runs
// are independent as long as they treat the (possibly shared) Target as
// read-only — which every method here does: the engine only ever reads
// t.ID, t.Issue, t.FailureLog, t.Analysis, t.Oracle, t.Workload, t.Horizon,
// t.RootSite and t.FaultClasses, and all derived state (observables, site
// states, distance tables) lives on the engine.
//
// The search itself is split across phase files: setup.go (observable
// extraction and candidate discovery), classes.go (the fault-class table:
// what each class enumerates), ranking.go (site priorities and the
// ranking over them), selection.go (instance selection and the
// flexible window), feedback.go (the one round loop and its Algorithm 2
// learn step), and strategies.go (the strategy table and the queue rows'
// queue builders).
type engine struct {
	t *Target
	o Options

	obs   []*observable
	sites []*siteState
	root  *siteState // the candidate t.RootSite names, nil if none
	align *logdiff.Alignment

	// failure is t.FailureLog as every round's diff reads it: flattened
	// under the global-diff row and grouped by thread, once, in setup.
	failure *logdiff.Failure

	// ws is the working memory the search borrowed (see workspace).
	ws *workspace

	// Per-round scratch, reused across the thousands of rounds a search
	// runs: the ranking snapshot, the window as picks and as the
	// candidates rendered from them, and the missing-observable vector.
	// Each is valid only until the next round recomputes it.
	rankedBuf []*siteState
	picks     []pick
	candBuf   []inject.Instance
	missBuf   []bool

	// freeRes is the free run the strategies explore from. The whole search
	// reads it (pathOf, the queue builders), so its environment goes back to
	// the workspace only when the search is over.
	freeRes *cluster.Result

	// freshEnvs keeps every environment out of the workspace, so that a
	// search in an empty one builds a fresh environment for every trial —
	// the reference a recycled search must equal. Only export_test.go sets
	// it.
	freshEnvs bool

	// checkPick, when set, is handed the site of every bestUntried answer
	// after the answer is settled, memo hit or not, so a test can hold it
	// to a fresh scan. Only export_test.go sets it.
	checkPick func(s *siteState)

	// strategy is the strategyTable row the search runs, resolved by
	// prepare. window is the flexible-window size the next round selects
	// with: Options.Window — pinned at 1 for a queue row — until a round
	// widens it. class and secondPass are a priority row's open stage
	// (nextStage); unreached is widen's unreachedLimit count.
	strategy   *strategy
	window     int
	class      classID
	secondPass bool
	unreached  int

	// classes are the enabled fault classes, resolved by prepare from
	// Options/Target (site-only by default).
	classes classSet

	// feats are the runtime features every trial of the search runs with:
	// the enabled classes' own, plus path addressing under AddrPath.
	// Resolved by prepare.
	feats inject.Features

	report *Report
}

func newEngine(t *Target, o Options, ws *workspace) *engine {
	return &engine{t: t, o: o, ws: ws, report: &Report{
		Target: t.ID, Issue: t.Issue, Strategy: o.Strategy,
	}}
}

// workspace is the working memory a search borrows for its length: the
// environments of its booked rounds — and, once it is over, of its free run
// — for the next trials to be built in, and the scratch of its log diffs.
// An environment is the part of a trial's garbage that is the same every
// round, and a search's set-up is the same work every search, so the
// workspace outlives the engine: Reproduce and Verify take one from
// workspaces and put it back when they return. The pool hands a workspace
// to one caller at a time and no Report reaches into it, so concurrent
// searches share the pool but never a workspace. It carries memory, not
// state: every trial rebuilds its environment in place
// (cluster.Run), and every diff overwrites the scratch.
type workspace struct {
	envs []*cluster.Env
	diff logdiff.Scratch
}

// workspaces is the process's pool of idle workspaces. The collector may
// take an idle one; the next search then starts cold.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// env takes an environment to build the next trial in, nil when the
// workspace has none left.
func (ws *workspace) env() *cluster.Env {
	n := len(ws.envs)
	if n == 0 {
		return nil
	}
	env := ws.envs[n-1]
	ws.envs[n-1] = nil
	ws.envs = ws.envs[:n-1]
	return env
}

// keep takes back the environment of a result nothing reads any more.
func (ws *workspace) keep(res *cluster.Result) { ws.envs = append(ws.envs, res.Release()) }

// trialSeed is the seed of run k of round r, round 0 being the free run:
// Seed+r for the round's own trial (k = 0), Seed+r+k<<33 for its
// combined-log extra run k >= 1 (combineLogs), and Seed+r+1<<32 for a
// failed trial's second try (k = retry). No two trials of a search share a
// seed: with rounds below 1<<32 every trial and retry lies in [0, 1<<33)
// above Seed and every extra run above that, and two extra runs share a
// seed only if they share both r and k.
func (e *engine) trialSeed(round, k int) int64 {
	if k == retry {
		return e.o.Seed + int64(round) + 1<<32
	}
	return e.o.Seed + int64(round) + int64(k)<<33
}

// retry is trialSeed's k of a failed trial's second try.
const retry = -1

// tracing reports whether a trace sink is attached. Every emission below
// is guarded by it, so a disabled trace builds no events and allocates
// nothing on the search path.
func (e *engine) tracing() bool { return e.o.Trace != nil }

func (e *engine) emit(ev *trace.Event) { e.o.Trace.Emit(ev) }

// obsLabel renders an observable's identity for trace events.
func obsLabel(o *observable) string { return o.key.Thread + ": " + o.key.Msg }

// traceInjected records the reach at which a round's fault fired. A
// pseudo-site injection is a distinct event type per family carrying the
// decoded class and operands (and, for env, the virtual-time duration); a
// pair injection carries its two decoded member instances.
func (e *engine) traceInjected(round int, inst inject.Instance, satisfied bool) {
	if !e.tracing() {
		return
	}
	ev := &trace.Event{
		Type: trace.Injected, Round: round,
		Site: inst.Site, Occ: inst.Occurrence, Path: inst.Path, Satisfied: satisfied,
	}
	if f, ok := inject.ParsePseudo(inst.Site); ok {
		ev.Class, ev.Subject, ev.Peer = string(f.Class), f.Subject, f.Peer
		if f.Family == inject.EnvFaults {
			ev.Type, ev.Dur = trace.EnvInjected, int64(f.Duration)
		} else {
			ev.Type = trace.PartialInjected
		}
	} else if a, b, ok := inject.PairMembers(inst); ok {
		ev.Type = trace.PairInjected
		ev.Path = "" // the member list already carries the references
		ev.Members = []trace.Candidate{
			{Site: a.Site, Occ: a.Occurrence, Path: a.Path},
			{Site: b.Site, Occ: b.Occurrence, Path: b.Path},
		}
	}
	e.emit(ev)
}

// traceRound records a round's decision once its selection is made: the
// window, the first trace.MaxCandidates candidates and their full count,
// and — for a priority row — the root rank and the top of the ranking the
// window was filled from, with the tried counts the selection saw. Only a
// round that runs emits it, so a trace's round events are its report's
// rounds.
func (e *engine) traceRound(round int, candidates []inject.Instance, ranked []*siteState, rootRank int) {
	if !e.tracing() {
		return
	}
	ev := &trace.Event{
		Type: trace.RoundStart, Round: round, Window: e.window,
		RootRank: rootRank, CandidateCount: len(candidates),
	}
	for _, s := range ranked[:min(len(ranked), trace.TopK)] {
		sr := trace.SiteRank{Site: s.id, F: trace.Float(s.f), Tried: s.tried.Len()}
		if s.bestObs >= 0 {
			sr.BestObs = obsLabel(e.obs[s.bestObs])
		}
		ev.Top = append(ev.Top, sr)
	}
	for _, c := range candidates[:min(len(candidates), trace.MaxCandidates)] {
		ev.Candidates = append(ev.Candidates, trace.Candidate{Site: c.Site, Occ: c.Occurrence, Path: c.Path})
	}
	e.emit(ev)
}

// run executes the whole workflow — free run, setup, then the round loop.
// A search that cannot start is a verdict of its own: Report.Error, or
// Interrupted when the free run was cancelled.
func (e *engine) run() *Report {
	start := time.Now()
	defer e.releaseFreeRun()
	switch err := e.prepare(); {
	case err == nil:
		e.explore()
	case isInterrupted(err):
		e.report.Interrupted = true
	default:
		e.report.Error = err.Error()
	}
	e.finish(start)
	return e.report
}

// prepare resolves the strategy row and the fault classes — Options' when it
// names any, else the Target's; an unknown name fails the search before it
// costs a free run — then performs the free run
// (workflow step 1) and setup (step 2). The free run is isolated like any
// trial: a panic or budget exhaustion is retried once under the next
// derived seed, and a second failure aborts the search with an error (there
// is no timeline to search without it).
func (e *engine) prepare() error {
	var err error
	if e.strategy, err = strategyByName(e.o.Strategy); err != nil {
		return err
	}
	names := e.o.FaultClasses
	if len(names) == 0 {
		names = e.t.FaultClasses
	}
	if e.classes, err = classSetOf(names...); err != nil {
		return err
	}
	e.class = e.classes.from(0)
	e.feats = e.classes.features()
	if e.o.Addressing == AddrPath {
		e.feats |= inject.PathAddressing
	}
	e.window = e.o.Window
	if e.strategy.queue != nil {
		e.window = 1
	}
	freeStart := time.Now()
	free, err := e.trial(e.trialSeed(0, 0), nil)
	if err != nil && !isInterrupted(err) {
		free, err = e.trial(e.trialSeed(0, retry), nil)
	}
	if err != nil {
		if !isInterrupted(err) {
			err = fmt.Errorf("free run failed twice: %w", err)
		}
		return err
	}
	e.report.FreeRunTime = time.Since(freeStart)
	e.report.FreeRunLogLines = len(free.Entries)
	e.freeRes = free
	e.setup(free)
	return nil
}

// finish closes the report with the reason the search ended. An interrupted
// search has none and emits no trace outcome: it did not end, it stopped.
func (e *engine) finish(start time.Time) {
	rep := e.report
	rep.Elapsed = time.Since(start)
	if rep.Script != nil {
		rep.EnvRooted = inject.IsEnvSite(rep.Script.Site)
		rep.PartialRooted = inject.IsPartialSite(rep.Script.Site)
	}
	if rep.Interrupted {
		return
	}
	switch {
	case rep.Reproduced:
		rep.Reason = trace.ReasonReproduced
	case rep.Error != "":
		rep.Reason = trace.ReasonError
	case rep.Rounds >= e.o.MaxRounds:
		rep.Reason = trace.ReasonRoundCap
	case e.unreached >= unreachedLimit:
		rep.Reason = trace.ReasonWindowUnreached
	case e.classes.has(pairClass) && !e.strategy.armsPairs():
		rep.Reason = trace.ReasonClassNotSearched
	default:
		rep.Reason = trace.ReasonExhausted
	}
	if e.tracing() {
		ev := &trace.Event{
			Type: trace.Outcome, Reproduced: rep.Reproduced,
			Rounds: rep.Rounds, Reason: rep.Reason, Detail: rep.Error,
		}
		if rep.Reproduced {
			ev.Site = rep.Script.Site
			ev.Occ = rep.Script.Occurrence
			ev.Path = rep.Script.Path
			ev.ScriptSeed = rep.ScriptSeed
		}
		e.emit(ev)
	}
}

// trial runs the workload once under the engine's cancellation context and
// features, in a recycled environment when the workspace has one.
func (e *engine) trial(seed int64, plan *inject.Plan) (*cluster.Result, error) {
	return cluster.Run(e.o.Context, e.ws.env(), seed, plan, e.t.Workload, e.t.Horizon, e.feats)
}

// release takes back the environments of a round that has been booked, the
// reproducing round's too: nothing reads its results any more. Only trials
// that returned cleanly are recycled — one that panicked, exhausted its event
// budget or was cancelled stopped at an arbitrary point, and its environment
// is left to the collector with it (so is a failed first try, which
// attemptRound drops unseen).
func (e *engine) release(a *attempt) {
	if a.err != nil || e.freshEnvs {
		return
	}
	e.ws.keep(a.res)
	for _, res := range a.extra {
		e.ws.keep(res)
	}
}

// releaseFreeRun takes back the free run's environment when the search is
// over, whether it ended or was interrupted: nothing reads freeRes after
// run. A free run that failed never became freeRes.
func (e *engine) releaseFreeRun() {
	if e.freeRes != nil && !e.freshEnvs {
		e.ws.keep(e.freeRes)
	}
	e.freeRes = nil
}

// isInterrupted matches the trial error of an externally-cancelled run.
func isInterrupted(err error) bool {
	var te *cluster.TrialError
	return errors.As(err, &te) && te.Class == cluster.ClassInterrupted
}

// pathOf is the canonical path string of a free-run instance ("" outside
// path addressing), rendered from the free run's retained call tree the
// first time it is asked for and cached on the site: the engine holds
// identities, and a string exists only for an instance on its way to the
// wire — armed into a window, alone or as a pair member.
func (e *engine) pathOf(s *siteState, inst instance) string {
	if inst.addr.N == 0 {
		return ""
	}
	path, ok := s.paths[inst.occ]
	if !ok {
		if s.paths == nil {
			s.paths = make(map[int]string)
		}
		path = e.freeRes.Env.FI.PathOf(s.id, inst.addr)
		s.paths[inst.occ] = path
	}
	return path
}

// failureClass maps a trial error to its (class, detail) pair.
func failureClass(err error) (string, string) {
	var te *cluster.TrialError
	if errors.As(err, &te) {
		return te.Class, te.Detail
	}
	return "error", err.Error()
}

// satisfied judges a result by t's oracle, recovering an oracle panic into a
// trial error of class oracle.
func satisfied(t *Target, res *cluster.Result) (sat bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			sat = false
			err = &cluster.TrialError{Class: cluster.ClassOracle, Detail: fmt.Sprint(p)}
		}
	}()
	return t.Oracle.Satisfied(res), nil
}

// attempt is the outcome of one round's isolated trial: the run result and
// round bookkeeping, the seed the (possibly retried) trial actually ran
// under, the window index of the candidate the run committed to (valid when
// rd.Injected is set), the oracle verdict, and the terminal error when both
// the trial and its retry failed. extra holds the combined-log re-runs of
// the round's injection that ran cleanly (combineLogs): all unsatisfied but
// the last, when that one satisfied the oracle and set sat and seed.
type attempt struct {
	res       *cluster.Result
	extra     []*cluster.Result
	rd        *Round
	seed      int64
	committed int
	sat       bool
	err       error
}

// attemptRound runs one round with the trial-isolation policy: arm the
// selected window, execute it and judge the result; on any failure — target
// panic, event budget, oracle panic — retry once under the next derived
// seed; a second failure degrades the round to inconclusive (err set,
// rd.Failure classified). Cancellation is never retried.
func (e *engine) attemptRound(round int, candidates []inject.Instance, initTime time.Duration, rootRank int) attempt {
	rd := &Round{N: round, RootRank: rootRank, WindowSize: e.window, InitTime: initTime}
	plan := inject.Window(candidates)
	runStart := time.Now()
	a := e.tryOnce(e.trialSeed(round, 0), plan, candidates, rd)
	if a.err != nil && !isInterrupted(a.err) {
		a = e.tryOnce(e.trialSeed(round, retry), plan, candidates, rd)
	}
	rd.RunTime = time.Since(runStart)
	a.rd = rd
	if a.err != nil && !isInterrupted(a.err) {
		rd.Inconclusive = true
		rd.Failure, _ = failureClass(a.err)
	}
	return a
}

// tryOnce executes the plan (armed from candidates) under one seed and
// judges the result, recording the round's runtime bookkeeping from
// whatever the run produced (a recovered panic still yields a partial
// result).
func (e *engine) tryOnce(seed int64, plan *inject.Plan, candidates []inject.Instance, rd *Round) attempt {
	res, err := e.trial(seed, plan)
	a := attempt{res: res, seed: seed, err: err}
	if res != nil {
		reqs, decTime := res.Env.FI.Decisions()
		rd.InjectReqs, rd.DecideTime = reqs, decTime
		// The round's injection is the reach that fired — under path
		// addressing with that run's own occurrence of it — except that a
		// pair is reported as the committed pair instance rather than
		// whichever member was reached first.
		rd.Injected = nil
		if ev, ok := res.Env.FI.Injected(); ok {
			a.committed, _ = plan.Committed()
			inst := inject.Instance{Site: ev.Site, Occurrence: ev.Occurrence, Path: res.Env.FI.PathOf(ev.Site, ev.Addr)}
			if inject.IsPairSite(candidates[a.committed].Site) {
				inst = candidates[a.committed]
			}
			rd.Injected = &inst
		}
	}
	if err == nil {
		a.sat, a.err = satisfied(e.t, res)
	}
	return a
}

// recordInconclusive books a degraded round: the report and trace record
// the failure class, the attempted instance (if one injected before the
// failure) counts as tried so the search advances, and no feedback flows.
// A queue row has no picks to mark, and never reads tried state.
func (e *engine) recordInconclusive(a attempt) {
	rd := a.rd
	if rd.Injected != nil && e.strategy.queue == nil {
		e.markTried(e.picks[a.committed])
	}
	e.report.InconclusiveRounds++
	if e.tracing() {
		class, detail := failureClass(a.err)
		ev := &trace.Event{Type: trace.Inconclusive, Round: rd.N, Class: class, Detail: detail}
		var te *cluster.TrialError
		if errors.As(a.err, &te) {
			// Subject identifiers: the trial seed that failed and — for
			// panics — the actor (node thread) executing when it fired.
			ev.Seed = te.Seed
			ev.Actor = te.Actor
		}
		if rd.Injected != nil {
			ev.Site, ev.Occ = rd.Injected.Site, rd.Injected.Occurrence
		}
		e.emit(ev)
	}
	e.record(rd)
}

// record books a finished round on the report.
func (e *engine) record(rd *Round) {
	e.report.RoundLog = append(e.report.RoundLog, *rd)
	e.report.Rounds = rd.N
}

// markTried takes a window pick out of the search (§5.2.5): its free-run
// instance counts as tried, whatever occurrence the run reached it at.
func (e *engine) markTried(p pick) { p.site.tried.Add(p.inst.occ) }
