package core

// The round loop every strategy runs through (§3 steps 3–5): select the
// round's candidates, inject, judge, and — for the priority-driven rows —
// learn from the unsatisfied injection (§5.2, Algorithm 2).

import (
	"time"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

// feedbackSpec fixes the design point of one priority-driven strategy. The
// rows of strategyTable differ only in these toggles.
type feedbackSpec struct {
	useFeedback    bool // apply Algorithm 2 priority adjustments
	useTemporal    bool // rank instances by temporal distance T_{i,j,k}
	multiply       bool // §8.3 multiply-feedback pair ranking
	limited        bool // cap instances per site at instanceLimit
	sumAggregation bool // §5.2.4: F_i = sum_k instead of min_k
	fixedWindow    bool // §5.2.5: never double the window on empty rounds
	globalDiff     bool // §5.1: diff logs globally instead of per thread
}

// instanceLimit is the per-site cap of the paper's limit-3 variants (§8.3).
const instanceLimit = 3

// unreachedLimit is the floor under the flexible window: a stage ends after
// this many consecutive empty rounds on a window their selection did not
// fill. Such a window holds every candidate left and stops growing, and
// until a round injects or is inconclusive (which resets the count) it stays
// unfilled, so later rounds would only re-arm it under other seeds.
const unreachedLimit = 2

// explore is the one round loop. The rows differ in the select step — a
// queue row injects the next entry of a queue that is a deterministic
// function of the free run, a priority-driven row the ranked window —
// and in what follows an injection the oracle did not accept: only a
// priority-driven row widens its window, re-runs under extra seeds and
// learns.
func (e *engine) explore() {
	last := e.o.MaxRounds
	queued := e.strategy.queue != nil
	var queue []inject.Instance
	if queued {
		queue = e.strategy.queue(e)
		last = min(last, len(queue))
	}
	for round := 1; round <= last; round++ {
		if ctx := e.o.Context; ctx != nil && ctx.Err() != nil {
			e.report.Interrupted = true
			return
		}
		initStart := time.Now()
		var candidates []inject.Instance
		var ranked []*siteState
		if queued {
			candidates = queue[round-1 : round]
		} else {
			candidates, ranked = e.selectRanked(round)
		}
		if len(candidates) == 0 {
			return // every stage ended: cannot reproduce (step 5)
		}
		rootRank := e.rootRank(ranked)
		initTime := time.Since(initStart)
		e.traceRound(round, candidates, ranked, rootRank)

		a := e.attemptRound(round, candidates, initTime, rootRank)
		rd := a.rd
		if a.err != nil || rd.Injected != nil {
			e.unreached = 0
		}
		if !queued && a.err == nil && !a.sat && rd.Injected != nil {
			e.combineLogs(&a)
		}
		switch {
		case isInterrupted(a.err):
			// Cancelled mid-trial: neither recorded nor marked tried.
			e.report.Interrupted = true
			return
		case a.err != nil:
			e.recordInconclusive(a)
		case rd.Injected == nil:
			// Nothing in the window occurred this round: widen it (§5.2.5).
			if !queued {
				e.widen(round)
			}
			e.record(rd)
		case a.sat:
			e.traceInjected(round, *rd.Injected, true)
			rd.Satisfied = true
			e.report.Reproduced = true
			e.report.Script = rd.Injected
			e.report.ScriptSeed = a.seed
			e.record(rd)
			e.release(&a)
			return
		default:
			e.traceInjected(round, *rd.Injected, false)
			if !queued {
				e.learn(a)
			}
			e.record(rd)
		}
		e.release(&a)
	}
}

// selectRanked is a priority-driven row's select step: rank the sites and
// fill the window from the open stage's class; when the stage ends, on an
// empty fill or at unreachedLimit, nextStage opens the next one and the same
// round selects again. It returns the ranking with the candidates, for the
// root rank and the round's trace event.
func (e *engine) selectRanked(round int) (candidates []inject.Instance, ranked []*siteState) {
	ranked = e.rankedSites()
	fill := e.fillWindow
	if e.strategy.spec.multiply {
		fill = e.multiplyCandidates
	}
	for {
		if e.unreached < unreachedLimit {
			candidates = fill(ranked)
		}
		if len(candidates) > 0 || !e.nextStage(round) {
			return candidates, ranked
		}
	}
}

// nextStage opens a priority row's next (class, pass) stage: each enabled
// class, in table order, runs a first pass, then a second, before the next
// opens. A second pass clears its class's tried sets and pick memos (which
// assume their set only grows), so a root armed once under an unlucky seed
// is armed again under a later round's seed. Every stage starts with the
// window at Options.Window and unreached at 0. It returns false when no
// stage is left, so the search ends for the reason its last stage ended.
func (e *engine) nextStage(round int) bool {
	if !e.secondPass {
		e.secondPass = true
		for _, s := range e.sites {
			if s.class == e.class {
				s.tried = triedSet{}
				s.pick.valid = false
			}
		}
		if e.tracing() {
			e.emit(&trace.Event{Type: trace.SecondPass, Round: round})
		}
	} else if next := e.classes.from(e.class + 1); next < numClasses {
		e.class, e.secondPass = next, false
	} else {
		return false
	}
	e.window, e.unreached = e.o.Window, 0
	return true
}

// widen grows the flexible window after a round in which no candidate
// occurred, and counts the round toward unreachedLimit when its selection
// did not fill the window.
func (e *engine) widen(round int) {
	if len(e.picks) < e.window {
		e.unreached++
	}
	grown := e.growWindow(e.window)
	if e.tracing() {
		e.emit(&trace.Event{
			Type: trace.WindowGrow, Round: round, From: e.window, To: grown,
		})
	}
	e.window = grown
}

// combineLogs is the combined-log mitigation (§6): re-run the round's
// unsatisfied injection under extra seeds; crucial observables missing only
// probabilistically then show up in at least one of the runs, and a.extra
// collects them for the diff. An extra run that satisfies the oracle turns
// the round into a reproduction under that run's seed, and joins a.extra to
// go back to the workspace with the rest; one that fails is simply dropped —
// the round's primary run already succeeded, so the round stays judgeable; a
// cancelled one leaves the whole round unjudged (a.err). Each extra run
// draws its seed from a stream of its own (trialSeed), which no other option
// enters, so the round cap cannot change a search before the search reaches
// it.
func (e *engine) combineLogs(a *attempt) {
	inj, round := *a.rd.Injected, a.rd.N
	for extra := 1; extra < e.o.RunsPerRound; extra++ {
		seed := e.trialSeed(round, extra)
		res, err := e.trial(seed, inject.Exact(inj))
		if isInterrupted(err) {
			a.err = err
			return
		}
		if err != nil {
			continue
		}
		sat, serr := satisfied(e.t, res)
		if serr != nil {
			continue
		}
		a.extra = append(a.extra, res)
		if sat {
			a.sat, a.seed = true, seed
			return
		}
	}
}

// learn is the feedback step of Algorithm 2 after a judged, unsatisfied
// injection: the instance counts as tried, every relevant observable the
// round's logs produced is deprioritized by Options.Adjust (when the row
// uses feedback at all), and the injection that came closest to the failure
// log is kept as the §3 hint for a failure one fault does not reproduce.
func (e *engine) learn(a attempt) {
	rd := a.rd
	e.markTried(e.picks[a.committed])
	useFeedback := e.strategy.spec.useFeedback
	missingCount := 0
	var bumped []trace.ObsPriority
	for i, still := range e.missingIn(append([]*cluster.Result{a.res}, a.extra...)) {
		if still {
			missingCount++
		} else if useFeedback {
			e.obs[i].priority += e.o.Adjust
			if e.tracing() {
				bumped = append(bumped, trace.ObsPriority{
					Obs: obsLabel(e.obs[i]), Priority: e.obs[i].priority,
				})
			}
		}
	}
	rd.MissingObs = missingCount
	e.traceFeedback(rd.N, missingCount, bumped)
	if e.report.BestPartial == nil || missingCount < e.report.BestPartialMissing {
		e.report.BestPartial = rd.Injected
		e.report.BestPartialMissing = missingCount
	}
}

// traceFeedback records an Algorithm 2 update: the observables whose I_k
// was adjusted and the resulting F_i deltas. The deltas need next round's
// priorities, so a traced search scores the sites once more here; the next
// round's computePriorities yields the same values.
func (e *engine) traceFeedback(round, missing int, bumped []trace.ObsPriority) {
	if !e.tracing() {
		return
	}
	ev := &trace.Event{Type: trace.Feedback, Round: round, Missing: missing, Bumped: bumped}
	if len(bumped) > 0 {
		before := make([]float64, len(e.sites))
		for i, s := range e.sites {
			before[i] = s.f
		}
		e.computePriorities()
		for i, s := range e.sites {
			if s.f != before[i] {
				ev.Deltas = append(ev.Deltas, trace.SiteDelta{
					Site: s.id, Before: trace.Float(before[i]), After: trace.Float(s.f),
				})
			}
		}
	}
	e.emit(ev)
}

// missingIn reports, per relevant observable, whether it is missing from
// ALL of the given run logs (Algorithm 2's COMPARE over combined logs).
func (e *engine) missingIn(results []*cluster.Result) []bool {
	if cap(e.missBuf) < len(e.obs) {
		e.missBuf = make([]bool, len(e.obs))
	}
	miss := e.missBuf[:len(e.obs)]
	for i := range miss {
		miss[i] = true
	}
	for _, res := range results {
		m := e.ws.diff.Missing(e.flatten(res.Entries), e.failure)
		for i, o := range e.obs {
			if !m[o.keyIdx] {
				miss[i] = false
			}
		}
	}
	return miss
}
