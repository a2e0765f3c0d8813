package core

// White-box tests for the explorer's priority machinery.

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/logdiff"
	"anduril/internal/oracle"
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
	e.root = e.sites[0] // s.beta, as setup resolves Target.RootSite
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
// window occurs, the window doubles every round (§5.2.5). Unclamped, 63+
// consecutive no-injection rounds overflow int — the window goes
// non-positive, candidate selection picks nothing, and the loop falsely
// reports the fault space exhausted. The clamp caps growth at the total
// candidate-instance count, so the search keeps probing until MaxRounds.
func TestFlexibleWindowOverflowClamped(t *testing.T) {
	const maxRounds = 80 // > 63, enough to overflow without the clamp
	e := stubEngine(Options{Strategy: SiteDistance, Window: 1, MaxRounds: maxRounds})
	// An empty workload never reaches a fault site, so every round is a
	// no-injection round and the window doubles each time.
	e.t.Workload = func(env *cluster.Env) {}
	e.t.Oracle = oracle.Predicate("never", func(*cluster.Result) bool { return false })
	total := 0
	for _, s := range e.sites {
		total += len(s.instances)
	}
	e.report.CandidateInstances = total // what setup would have counted

	e.explore()

	if e.report.Reproduced {
		t.Fatal("nothing should reproduce")
	}
	if e.report.Rounds != maxRounds {
		t.Fatalf("stopped after %d rounds, want %d (false fault-space exhaustion)", e.report.Rounds, maxRounds)
	}
	for _, rd := range e.report.RoundLog {
		if rd.WindowSize < 1 || rd.WindowSize > total {
			t.Fatalf("round %d: window %d out of [1,%d]", rd.N, rd.WindowSize, total)
		}
	}
}

func TestGrowWindow(t *testing.T) {
	e := stubEngine(Options{})
	e.report.CandidateInstances = 18
	cases := []struct{ in, want int }{
		{1, 2}, {2, 4}, {8, 16}, {16, 18}, {18, 18}, {100, 18},
	}
	for _, c := range cases {
		if got := e.growWindow(c.in); got != c.want {
			t.Fatalf("growWindow(%d)=%d want %d", c.in, got, c.want)
		}
	}
	// Fixed-window ablation never grows.
	fixed := stubEngine(Options{Strategy: FixedWindow})
	fixed.report.CandidateInstances = 18
	if got := fixed.growWindow(3); got != 3 {
		t.Fatalf("fixed window grew to %d", got)
	}
	// Degenerate: no candidate instances counted — must stay positive.
	e.report.CandidateInstances = 0
	if got := e.growWindow(4); got != 1 {
		t.Fatalf("growWindow with no instances = %d, want 1", got)
	}
}

// markTried must mark the pick's own free-run occurrence on the pick's site
// alone, and count it toward the site class's tried total once.
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
	if near.tried.Len() != 1 || e.triedSite != 1 {
		t.Fatalf("tried %d, triedSite %d; want 1, 1", near.tried.Len(), e.triedSite)
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
