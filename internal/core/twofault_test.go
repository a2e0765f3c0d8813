package core_test

import (
	"testing"

	"anduril/internal/analysis"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/logging"
	"anduril/internal/oracle"
	"anduril/internal/sys/toy"
	"anduril/internal/trace"
)

// buildToyTarget assembles the two-fault toy service target: the failure
// needs a store-scrub fault AND a peer-ping fault in the degraded window.
func buildToyTarget(t *testing.T) *core.Target {
	t.Helper()
	an, err := analysis.AnalyzePackages([]string{"internal/sys/toy"})
	if err != nil {
		t.Fatal(err)
	}
	orc := oracle.LogContains("service entered unrecoverable state")
	// The "production" incident: scrub fault at occurrence 2 (t=200ms)
	// plus a ping flake at occurrence 2 (t=260ms), inside the window.
	prodPlan := inject.Exact(
		inject.Instance{Site: "toy.scrub-store", Occurrence: 2},
		inject.Instance{Site: "toy.ping-peer", Occurrence: 2},
	)
	prod, err := cluster.Run(nil, nil, 9999, prodPlan, toy.Workload, toy.Horizon, 0)
	if err != nil || !orc.Satisfied(prod) {
		t.Fatalf("two-fault incident not triggered:\n%s", prod.RenderLog())
	}
	return &core.Target{
		ID:         "toy-two-fault",
		Workload:   toy.Workload,
		Horizon:    toy.Horizon,
		Oracle:     orc,
		FailureLog: logging.Parse(prod.RenderLog()),
		Analysis:   an,
	}
}

func TestSingleFaultSearchCannotReproduceTwoFaultFailure(t *testing.T) {
	tgt := buildToyTarget(t)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 100})
	if rep.Reproduced {
		t.Fatalf("single-fault search should fail, found %v", rep.Script)
	}
	if rep.BestPartial == nil {
		t.Fatal("no best partial recorded")
	}
	// The scrub fault is the closer partial: it produces one of the two
	// missing observables.
	if rep.BestPartial.Site != "toy.scrub-store" {
		t.Fatalf("best partial = %v, want toy.scrub-store", rep.BestPartial)
	}
	t.Logf("single-fault pass: rounds=%d bestPartial=%v missing=%d",
		rep.Rounds, *rep.BestPartial, rep.BestPartialMissing)
}

// TestPairClassReproducesTwoFaultFailure: the failure no single fault
// reproduces is found once the pair class is enabled — the one answer to
// the paper's §6 limitation 2 — on every engine seed, as a pair of the two
// sites of the incident whose script verifies under a seed no round used.
// The site class runs both its passes first, round for round as the
// single-fault search runs them, and the pair class then finds the
// failure within 15 rounds.
func TestPairClassReproducesTwoFaultFailure(t *testing.T) {
	tgt := buildToyTarget(t)
	for seed := int64(1); seed <= 3; seed++ {
		single := core.Reproduce(tgt, core.Options{Seed: seed, MaxRounds: 100})
		rep := core.Reproduce(tgt, core.Options{Seed: seed, MaxRounds: 100,
			FaultClasses: []string{core.ClassSite, core.ClassPair}})
		if n := commonRounds(single, rep); n != single.Rounds {
			t.Fatalf("seed %d: the pair search repeats %d of the single-fault search's %d rounds", seed, n, single.Rounds)
		}
		if !rep.Reproduced || rep.Rounds > single.Rounds+15 {
			t.Fatalf("seed %d: reproduced=%v after %d rounds, want within %d+15", seed, rep.Reproduced, rep.Rounds, single.Rounds)
		}
		if want := inject.PairSiteID("toy.ping-peer", "toy.scrub-store"); rep.Script.Site != want {
			t.Fatalf("seed %d: script %v, want a %s pair", seed, rep.Script, want)
		}
		if !core.Verify(tgt, *rep.Script, 4321) {
			t.Fatalf("seed %d: pair script %v does not verify under a different seed", seed, rep.Script)
		}
	}
}

// commonRounds is the number of leading rounds two searches ran alike.
func commonRounds(a, b *core.Report) int {
	n := 0
	for n < min(len(a.RoundLog), len(b.RoundLog)) && roundLine(a.RoundLog[n]) == roundLine(b.RoundLog[n]) {
		n++
	}
	return n
}

func TestRunsPerRoundStillReproduces(t *testing.T) {
	tgt := target(t, "f1")
	rep := core.Reproduce(tgt, core.Options{Seed: 1, RunsPerRound: 3, MaxRounds: 100})
	if !rep.Reproduced {
		t.Fatalf("not reproduced with combined logs in %d rounds", rep.Rounds)
	}
}

// capSearch searches f31 — a pair search, so a long one — under seed 2 with
// two combined-log runs a round on top of the opts given, and returns the
// report and the trace lines.
func capSearch(tgt *core.Target, opts core.Options) (*core.Report, []string) {
	var mem trace.Memory
	opts.Seed, opts.RunsPerRound, opts.Trace = 2, 3, &mem
	return core.Reproduce(tgt, opts), lines(mem.Events)
}

// firstDiff is the index of the first line two traces differ in, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestCombinedLogSeedsIndependentOfRoundCap: the round cap bounds a search
// and steers none of it, the combined-log runs' seeds included.
func TestCombinedLogSeedsIndependentOfRoundCap(t *testing.T) {
	tgt := target(t, "f31")
	short, shortTrace := capSearch(tgt, core.Options{MaxRounds: 200})
	long, longTrace := capSearch(tgt, core.Options{MaxRounds: 500})
	if !short.Reproduced || !long.Reproduced {
		t.Fatalf("f31 not reproduced: cap 200 %v in %d rounds, cap 500 %v in %d", short.Reproduced, short.Rounds, long.Reproduced, long.Rounds)
	}
	// Everything before the shorter search's outcome line.
	n := min(len(shortTrace), len(longTrace)) - 1
	if i := firstDiff(shortTrace[:n], longTrace[:n]); i >= 0 {
		t.Fatalf("cap 200 and cap 500 part at trace line %d:\n- %s\n+ %s", i+1, shortTrace[i], longTrace[i])
	}
}

func TestMissingObsTracked(t *testing.T) {
	tgt := buildToyTarget(t)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 50})
	sawMissing := false
	for _, rd := range rep.RoundLog {
		if rd.Injected != nil && rd.MissingObs > 0 {
			sawMissing = true
		}
	}
	if !sawMissing {
		t.Fatal("missing-observable counts never recorded")
	}
}
