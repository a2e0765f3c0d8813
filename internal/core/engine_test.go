package core

// White-box tests for the explorer's priority machinery.

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"anduril/internal/cluster"
	"anduril/internal/logdiff"
	"anduril/internal/oracle"
	"anduril/internal/trace"
)

// stubEngine builds an engine with hand-made observables, distances and
// instances, bypassing the free run; the strategy row and starting window
// are what prepare would have resolved from o.
func stubEngine(o Options) *engine {
	e := newEngine(&Target{ID: "stub"}, o.withDefaults(), new(workspace))
	e.strategy, _ = strategyByName(e.o.Strategy)
	e.window = e.o.Window
	e.obs = []*observable{
		{key: logdiff.Key{Thread: "t", Msg: "alpha"}, positions: []int{100}, templates: []string{"alpha"}},
		{key: logdiff.Key{Thread: "t", Msg: "beta"}, positions: []int{200}, templates: []string{"beta"}},
	}
	dist := map[string]map[string]int{
		"s.near":  {"alpha": 2},
		"s.far":   {"alpha": 7},
		"s.beta":  {"beta": 3},
		"s.both":  {"alpha": 5, "beta": 4},
		"s.none":  {},
		"s.gamma": {"gamma": 1}, // reaches only an irrelevant template
	}
	// Sorted by id, as engine.setup leaves them.
	for _, id := range []string{"s.beta", "s.both", "s.far", "s.gamma", "s.near", "s.none"} {
		e.sites = append(e.sites, &siteState{
			id:        id,
			dists:     dist[id],
			instances: []instance{{occ: 1, alignedPos: 90}, {occ: 2, alignedPos: 195}, {occ: 3, alignedPos: 400}},
		})
	}
	return e
}

func TestComputePrioritiesMin(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities()
	get := func(id string) *siteState {
		for _, s := range e.sites {
			if s.id == id {
				return s
			}
		}
		return nil
	}
	if got := get("s.near").f; got != 2 {
		t.Fatalf("s.near F=%v", got)
	}
	if got := get("s.both").f; got != 4 { // min(5, 4)
		t.Fatalf("s.both F=%v", got)
	}
	if got := get("s.both").bestObs; got != 1 {
		t.Fatalf("s.both bestObs=%d", got)
	}
	if !math.IsInf(get("s.none").f, 1) || !math.IsInf(get("s.gamma").f, 1) {
		t.Fatal("unreachable sites must have infinite priority")
	}

	// Feedback: deprioritizing alpha flips s.both's best observable logic.
	e.obs[1].priority = 10 // beta now expensive
	e.computePriorities()
	if got := get("s.both").f; got != 5 { // min(5+0, 4+10)
		t.Fatalf("after feedback, s.both F=%v", got)
	}
	if got := get("s.both").bestObs; got != 0 {
		t.Fatalf("after feedback, s.both bestObs=%d", got)
	}
}

func TestComputePrioritiesSumAblation(t *testing.T) {
	e := stubEngine(Options{Strategy: SumAggregation})
	e.computePriorities()
	for _, s := range e.sites {
		if s.id == "s.both" {
			if s.f != 9 { // 5 + 4
				t.Fatalf("sum F=%v", s.f)
			}
			if s.bestObs != 1 { // nearest partial still beta (4 < 5)
				t.Fatalf("sum bestObs=%d", s.bestObs)
			}
		}
	}
}

func TestTemporalDistance(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities()
	var near *siteState
	for _, s := range e.sites {
		if s.id == "s.near" {
			near = s
		}
	}
	// s.near's best observable is alpha at failure position 100.
	if d := e.temporalDistance(near, instance{alignedPos: 90}); d != 10 {
		t.Fatalf("T=%v", d)
	}
	if d := e.temporalDistance(near, instance{alignedPos: 400}); d != 300 {
		t.Fatalf("T=%v", d)
	}
}

func TestBestUntriedTemporalVsOrder(t *testing.T) {
	// s.near under a strategy row's engine, with a fourth instance past the
	// limited rows' cap, aligned right on alpha@100.
	nearUnder := func(o Options) (*engine, *siteState) {
		e := stubEngine(o)
		e.computePriorities()
		for _, s := range e.sites {
			if s.id == "s.near" {
				s.instances = append(s.instances, instance{occ: 4, alignedPos: 100})
				return e, s
			}
		}
		t.Fatal("no s.near")
		return nil, nil
	}
	want := func(e *engine, s *siteState, occ int) {
		t.Helper()
		if inst, ok := e.bestUntried(s); !ok || inst.occ != occ {
			t.Fatalf("%s: best %+v ok=%v, want occ %d", e.o.Strategy, inst, ok, occ)
		}
	}
	// Temporal: occ 4 sits on alpha; then occ 1 (aligned 90, distance 10)
	// beats occ 2 (aligned 195).
	e, near := nearUnder(Options{})
	want(e, near, 4)
	near.tried.Add(4)
	want(e, near, 1)
	near.tried.Add(1)
	want(e, near, 2)
	// Order mode ignores alignment: lowest untried occurrence, also past
	// the cap.
	e, near = nearUnder(Options{Strategy: TemporalByOrder})
	want(e, near, 1)
	for occ := 1; occ <= instanceLimit; occ++ {
		near.tried.Add(occ)
	}
	want(e, near, 4)
	// The instance limit hides occurrences beyond the cap.
	e, near = nearUnder(Options{Strategy: SiteDistanceLimit})
	for occ := 1; occ <= instanceLimit; occ++ {
		near.tried.Add(occ)
	}
	if inst, ok := e.bestUntried(near); ok {
		t.Fatalf("limit %d should exhaust after %d occurrences, got %+v", instanceLimit, instanceLimit, inst)
	}
}

// TestBestUntriedMemoFollowsFeedback: feedback that moves a site's best
// observable moves its best untried instance with it, though nothing was
// tried in between — the memo keyed on the tried set alone would keep the
// stale pick. s.both measures from beta@200 (occ 2 at 195 is nearest)
// until beta turns expensive, then from alpha@100 (occ 1 at 90).
func TestBestUntriedMemoFollowsFeedback(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities()
	var both *siteState
	for _, s := range e.sites {
		if s.id == "s.both" {
			both = s
		}
	}
	if inst, ok := e.bestUntried(both); !ok || inst.occ != 2 {
		t.Fatalf("under beta: %+v ok=%v, want occ 2", inst, ok)
	}
	e.obs[1].priority = 10
	e.computePriorities()
	if inst, ok := e.bestUntried(both); !ok || inst.occ != 1 {
		t.Fatalf("under alpha: %+v ok=%v, want occ 1", inst, ok)
	}
}

func TestRankedSitesStable(t *testing.T) {
	e := stubEngine(Options{})
	ranked := e.rankedSites()
	if ranked[0].id != "s.near" {
		t.Fatalf("rank 1: %s", ranked[0].id)
	}
	// Equal-F sites must order deterministically by id.
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].f == ranked[i].f && ranked[i-1].id > ranked[i].id {
			t.Fatalf("unstable tiebreak at %d", i)
		}
	}
	e.root = e.sites[0] // s.beta, as setup resolves Target.Root's site
	if r := e.rootRank(ranked); r < 1 || r > len(ranked) || ranked[r-1].id != "s.beta" {
		t.Fatalf("rootRank=%d", r)
	}
	e.root = nil // the target's root is no candidate
	if r := e.rootRank(ranked); r != 0 {
		t.Fatalf("absent rootRank=%d", r)
	}
}

func TestMedianHelpers(t *testing.T) {
	rounds := []Round{
		{InitTime: 3 * time.Millisecond, RunTime: 30, InjectReqs: 5},
		{InitTime: 1 * time.Millisecond, RunTime: 10, InjectReqs: 1},
		{InitTime: 2 * time.Millisecond, RunTime: 20, InjectReqs: 3},
	}
	r := &Report{RoundLog: rounds}
	if got := r.MedianInitTime(); got != 2*time.Millisecond {
		t.Fatalf("median init: %v", got)
	}
	if got := r.MedianInjectReqs(); got != 3 {
		t.Fatalf("median reqs: %d", got)
	}
	empty := &Report{}
	if empty.MedianInitTime() != 0 || empty.MedianInjectReqs() != 0 || empty.MeanDecisionLatency() != 0 {
		t.Fatal("empty report medians should be zero")
	}
}

// Regression for the flexible-window overflow: when no candidate in the
// window occurs, the window doubles (§5.2.5). Doubled every round, 63+
// consecutive no-injection rounds overflow int — the window goes
// non-positive, candidate selection picks nothing, and the loop falsely
// reports the fault space exhausted. The window doubles only when its
// selection filled it, so it stays within twice the largest selection; and
// two rounds in a row that arm every candidate and inject nothing end the
// pass, so the search ends long before its cap, and not as exhausted.
func TestFlexibleWindowOverflowClamped(t *testing.T) {
	const maxRounds = 80 // > 63, enough to overflow by doubling every round
	var mem trace.Memory
	e := stubEngine(Options{Strategy: SiteDistance, Window: 1, MaxRounds: maxRounds, Trace: &mem})
	// An empty workload never reaches a fault site, so every round is a
	// no-injection round.
	e.t.Workload = func(env *cluster.Env) {}
	e.t.Oracle = oracle.Predicate("never", func(*cluster.Result) bool { return false })

	e.explore()
	e.finish(time.Now())

	// Window 1, 2, 4 fill; 8 holds the six sites' picks twice; the second
	// pass repeats that from window 1.
	if e.report.Reproduced || e.report.Reason != trace.ReasonWindowUnreached || e.report.Rounds != 10 {
		t.Fatalf("reproduced=%v after %d rounds (%s), want %s after 10",
			e.report.Reproduced, e.report.Rounds, e.report.Reason, trace.ReasonWindowUnreached)
	}
	largest := 0
	for _, ev := range mem.Events {
		if ev.Type == trace.RoundStart {
			largest = max(largest, ev.CandidateCount)
		}
	}
	for _, rd := range e.report.RoundLog {
		if rd.WindowSize < 1 || rd.WindowSize > 2*largest {
			t.Fatalf("round %d: window %d out of [1,%d]", rd.N, rd.WindowSize, 2*largest)
		}
	}
}

// growWindow doubles the window iff the round's selection filled it: the
// stub's six sites give one pick each, so a window over six holds. The
// fixed-window row never grows.
func TestGrowWindow(t *testing.T) {
	cases := []struct {
		strategy     Strategy
		window, want int
	}{
		{SiteDistance, 1, 2}, {SiteDistance, 4, 8}, {SiteDistance, 6, 12},
		{SiteDistance, 7, 7}, {SiteDistance, 100, 100},
		{FixedWindow, 1, 1}, {FixedWindow, 6, 6}, {FixedWindow, 7, 7},
	}
	for _, c := range cases {
		e := stubEngine(Options{Strategy: c.strategy, Window: c.window})
		e.fillWindow(e.rankedSites())
		if got := e.growWindow(e.window); got != c.want {
			t.Errorf("%s: growWindow(%d) after %d picks = %d, want %d", c.strategy, c.window, len(e.picks), got, c.want)
		}
	}
	// Sites that hold no candidate instance select nothing: the window holds.
	e := stubEngine(Options{Window: 4})
	for _, s := range e.sites {
		s.instances = nil
	}
	e.fillWindow(e.rankedSites())
	if got := e.growWindow(e.window); got != 4 {
		t.Fatalf("growWindow with no instances = %d, want 4", got)
	}
}

// Growth reads only the open class's picks: while a site-class instance is
// untried, a search that also enumerates env sites grows its window exactly
// as a site-only search does, round by round, as the tried sets fill.
func TestGrowWindowFollowsTriedSets(t *testing.T) {
	siteOnly, withEnv := stubEngine(Options{Window: 1}), stubEngine(Options{Window: 1})
	for _, s := range stubEngine(Options{}).sites[:2] {
		s.id, s.class = "env."+s.id, envClass // 6 env instances beside 18 site-class ones
		withEnv.sites = append(withEnv.sites, s)
	}
	for round := 1; ; round++ {
		a, b := siteOnly.fillWindow(siteOnly.rankedSites()), withEnv.fillWindow(withEnv.rankedSites())
		if len(a) == 0 {
			break
		}
		if !slices.Equal(a, b) {
			t.Fatalf("round %d: selected %v with env sites, %v without", round, b, a)
		}
		siteOnly.window, withEnv.window = siteOnly.growWindow(siteOnly.window), withEnv.growWindow(withEnv.window)
		if siteOnly.window != withEnv.window {
			t.Fatalf("round %d: window %d with env sites, %d without", round, withEnv.window, siteOnly.window)
		}
		siteOnly.markTried(siteOnly.picks[0])
		withEnv.markTried(withEnv.picks[0])
	}
}

// An instance is what selection reads of a free-run reach and no more: a
// search with every fault class holds millions of them.
func TestInstanceSize(t *testing.T) {
	if got := unsafe.Sizeof(instance{}); got != 32 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Fatalf("instance is %d bytes, want 32", got)
	}
}

// Every trial seed of a search: the free run, a round's trial, a retry of
// either, and a round's combined-log extra runs.
func TestTrialSeed(t *testing.T) {
	e := stubEngine(Options{Seed: 7})
	cases := []struct {
		name     string
		round, k int
		want     int64
	}{
		{"free run", 0, 0, 7},
		{"free-run retry", 0, retry, 7 + 1<<32},
		{"round 5", 5, 0, 7 + 5},
		{"round 5 retry", 5, retry, 7 + 5 + 1<<32},
		{"round 5 extra run 2", 5, 2, 7 + 5 + 2<<33},
	}
	for _, c := range cases {
		if got := e.trialSeed(c.round, c.k); got != c.want {
			t.Errorf("%s: trialSeed(%d, %d) = %d, want %d", c.name, c.round, c.k, got, c.want)
		}
	}
}

// markTried must mark the pick's own free-run occurrence on the pick's site
// alone, once.
func TestMarkTriedIndex(t *testing.T) {
	e := stubEngine(Options{})
	var near *siteState
	for _, s := range e.sites {
		if s.id == "s.near" {
			near = s
		}
	}
	p := pick{site: near, inst: near.instances[1]}
	e.markTried(p)
	e.markTried(p)
	for _, s := range e.sites {
		want := s == near
		if s.tried.Has(2) != want {
			t.Fatalf("site %s tried.Has(2)=%v want %v", s.id, s.tried.Has(2), want)
		}
	}
	if near.tried.Len() != 1 {
		t.Fatalf("tried %d, want 1", near.tried.Len())
	}
}

// Property: temporal distance is non-negative and zero exactly at an
// observable position.
func TestTemporalDistanceProperty(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities()
	var near *siteState
	for _, s := range e.sites {
		if s.id == "s.near" {
			near = s
		}
	}
	f := func(pos uint16) bool {
		d := e.temporalDistance(near, instance{alignedPos: float64(pos)})
		if d < 0 {
			return false
		}
		if pos == 100 && d != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
