package core_test

import (
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
)

func target(t testing.TB, id string) *core.Target {
	t.Helper()
	s, ok := failures.ByID(id)
	if !ok {
		t.Fatalf("no scenario %s", id)
	}
	tgt, err := s.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestCandidateSpaceNontrivial(t *testing.T) {
	tgt := target(t, "f1")
	rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1})
	if rep.CandidateSites < 3 {
		t.Errorf("candidate sites=%d, expected a real search space", rep.CandidateSites)
	}
	if rep.CandidateInstances < 30 {
		t.Errorf("candidate instances=%d, expected a large dynamic space", rep.CandidateInstances)
	}
	if rep.RelevantObservables == 0 {
		t.Error("no relevant observables extracted")
	}
}

func TestVariantsAlsoSearch(t *testing.T) {
	tgt := target(t, "f1")
	for _, strat := range []core.Strategy{
		core.Exhaustive, core.SiteDistance, core.SiteDistanceLimit,
		core.SiteFeedback, core.MultiplyFeedback,
	} {
		rep := core.Reproduce(tgt, core.Options{Strategy: strat, Seed: 1, MaxRounds: 300})
		t.Logf("%s: reproduced=%v rounds=%d", strat, rep.Reproduced, rep.Rounds)
		if rep.Rounds == 0 {
			t.Errorf("%s: no rounds executed", strat)
		}
	}
}

func TestBaselinesRun(t *testing.T) {
	tgt := target(t, "f1")
	for _, strat := range []core.Strategy{core.FATE, core.CrashTuner, core.StackTrace, core.Random} {
		rep := core.Reproduce(tgt, core.Options{Strategy: strat, Seed: 1, MaxRounds: 100})
		t.Logf("%s: reproduced=%v rounds=%d", strat, rep.Reproduced, rep.Rounds)
		if rep.Rounds == 0 {
			t.Errorf("%s: no rounds executed", strat)
		}
	}
}

// TestRankTracking: every search records the root site's rank, with no
// option asking for it.
func TestRankTracking(t *testing.T) {
	tgt := target(t, "f1")
	rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1})
	if !rep.Reproduced {
		t.Fatal("not reproduced")
	}
	sawRank := false
	for _, rd := range rep.RoundLog {
		if rd.RootRank > 0 {
			sawRank = true
		}
	}
	if !sawRank {
		t.Error("root rank never tracked")
	}
}

func TestReportMetrics(t *testing.T) {
	tgt := target(t, "f1")
	rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1})
	if rep.MedianRunTime() <= 0 {
		t.Error("median run time not recorded")
	}
	if rep.MedianInjectReqs() <= 0 {
		t.Error("median inject requests not recorded")
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}
