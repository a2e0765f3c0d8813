package core_test

import (
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

// TestStackTraceBaselineShape checks the paper's §8.4 finding: the
// stacktrace injector succeeds exactly when the failure log names the
// root-cause fault, and fails otherwise.
func TestStackTraceBaselineShape(t *testing.T) {
	// These defect paths log the original exception text. f32/f33 qualify
	// through their partial injection markers, which name the perturbed
	// site verbatim ("partial: torn rename at dfs.namenode.rename-edits");
	// f34's marker names a channel, not a site, so stacktrace misses it.
	inLog := map[string]bool{
		"f1": true, "f2": true, "f3": true, "f4": true, "f7": true,
		"f11": true, "f12": true, "f18": true, "f19": true,
		"f32": true, "f33": true,
	}
	for _, sc := range failures.All() {
		tgt := target(t, sc.ID)
		rep := core.Reproduce(tgt, core.Options{Strategy: core.StackTrace, Seed: 1, MaxRounds: 500})
		if rep.Reproduced != inLog[sc.ID] {
			t.Errorf("%s: stacktrace reproduced=%v, want %v", sc.ID, rep.Reproduced, inLog[sc.ID])
		}
	}
}

// TestInstanceLimitMissesTimingCriticalFailures checks the §8.3 ablation
// finding: capping each site at its first 3 instances loses exactly the
// failures whose root-cause occurrence is late and state-dependent. The
// report says why each search ended, with no trace sink attached.
func TestInstanceLimitMissesTimingCriticalFailures(t *testing.T) {
	timingCritical := map[string]bool{"f4": true, "f17": true, "f20": true}
	for id := range map[string]bool{"f4": true, "f17": true, "f20": true, "f1": false, "f16": false} {
		sc, _ := failures.ByID(id)
		tgt := target(t, sc.ID)
		rep := core.Reproduce(tgt, core.Options{Strategy: core.SiteDistanceLimit, Seed: 1, MaxRounds: 500})
		if timingCritical[id] && (rep.Reproduced || rep.Reason != trace.ReasonExhausted) {
			t.Errorf("%s: limit-3 variant should miss this timing-critical failure by exhausting its capped space (reproduced=%v, reason %q)", id, rep.Reproduced, rep.Reason)
		}
		if !timingCritical[id] && (!rep.Reproduced || rep.Reason != trace.ReasonReproduced) {
			t.Errorf("%s: limit-3 variant should still reproduce this one (reproduced=%v, reason %q)", id, rep.Reproduced, rep.Reason)
		}
	}
}

// TestSecondPassRetriesEachInstanceOnce: a search calls its space exhausted
// only after a second pass. f4 under the limit-3 row tries its capped space
// in 14 rounds; the 15th round's first selection finds nothing untried, so
// the round clears every tried set, resets the window and selects again —
// one second_pass event, then the round's one round event — and the second
// pass injects what the first did, in the same order, under fresh seeds.
func TestSecondPassRetriesEachInstanceOnce(t *testing.T) {
	var mem trace.Memory
	rep := core.Reproduce(target(t, "f4"), core.Options{Strategy: core.SiteDistanceLimit, Seed: 1, MaxRounds: 500, Trace: &mem})
	if rep.Reproduced || rep.Reason != trace.ReasonExhausted || rep.Rounds != 28 {
		t.Fatalf("reproduced=%v after %d rounds (%s), want exhausted after 28", rep.Reproduced, rep.Rounds, rep.Reason)
	}
	var passes, round15 []trace.Event
	for _, ev := range mem.Events {
		switch {
		case ev.Type == trace.SecondPass:
			passes = append(passes, ev)
		case ev.Type == trace.RoundStart && ev.Round == 15:
			round15 = append(round15, ev)
		}
	}
	if len(passes) != 1 || passes[0].Round != 15 || len(round15) != 1 || round15[0].Window != 10 {
		t.Fatalf("second_pass events %+v, round 15's round events %+v; want one second_pass, in round 15, beside one round event with window 10", passes, round15)
	}
	for i := range 14 {
		first, second := rep.RoundLog[i], rep.RoundLog[14+i]
		if first.Injected == nil || second.Injected == nil || *first.Injected != *second.Injected {
			t.Errorf("round %d injected %v, round %d %v", first.N, first.Injected, second.N, second.Injected)
		}
	}
}

// TestEmptyWindowsEndThePass: the searches that burned their round cap on
// empty windows — a trial seed that never reaches the armed occurrences —
// now end each pass after two rounds that arm every candidate left and
// inject nothing. Each reproduces or says the window went unreached, never
// at the cap, and spends at most two empty rounds per pass on it.
func TestEmptyWindowsEndThePass(t *testing.T) {
	for _, c := range []struct {
		id   string
		mode core.Addressing
		seed int64
	}{
		{"f3", core.AddrOccurrence, 15000046},
		{"f3", core.AddrOccurrence, 218000655},
		{"f3", core.AddrOccurrence, 228000685},
		{"f3", core.AddrPath, 12000037},
		{"f3", core.AddrPath, 208000625},
		{"f2", core.AddrOccurrence, 150},
		{"f1", core.AddrPath, 153},
	} {
		rep := core.Reproduce(target(t, c.id), core.Options{Seed: c.seed, MaxRounds: 500, Addressing: c.mode})
		empty := 0
		for _, rd := range rep.RoundLog {
			if rd.Injected == nil && !rd.Inconclusive {
				empty++
			}
		}
		if (!rep.Reproduced && rep.Reason != trace.ReasonWindowUnreached) || empty > 4 {
			t.Errorf("%s/%s seed %d: %s after %d rounds, %d of them empty; want reproduced or %s, ≤ 4 empty",
				c.id, c.mode, c.seed, rep.Reason, rep.Rounds, empty, trace.ReasonWindowUnreached)
		}
		t.Logf("%s/%s seed %d: %s after %d rounds, %d empty", c.id, c.mode, c.seed, rep.Reason, rep.Rounds, empty)
	}
}

// TestCrashTunerShape: the meta-info heuristic reproduces only the
// failures whose root sits at a crash-recovery point (4 of 22, as in the
// paper).
func TestCrashTunerShape(t *testing.T) {
	count := 0
	for _, sc := range failures.All() {
		tgt := target(t, sc.ID)
		rep := core.Reproduce(tgt, core.Options{Strategy: core.CrashTuner, Seed: 1, MaxRounds: 500})
		if rep.Reproduced {
			count++
		}
	}
	if count < 2 || count > 8 {
		t.Errorf("crashtuner reproduced %d failures; expected a small minority (paper: 4)", count)
	}
	t.Logf("crashtuner reproduced %d/%d", count, len(failures.All()))
}

// TestDatasetSeedRobustness re-runs the headline regression under other
// master seeds: reproduction must not depend on a lucky environment.
func TestDatasetSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, seed := range []int64{42, 777} {
		for _, sc := range failures.All() {
			tgt := target(t, sc.ID)
			rep := core.Reproduce(tgt, core.Options{Seed: seed, MaxRounds: 500})
			if !rep.Reproduced {
				t.Errorf("seed %d: %s (%s) not reproduced", seed, sc.ID, sc.Issue)
			}
		}
	}
}
