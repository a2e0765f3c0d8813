package core_test

// Registering the dyn target (f26–f29) changes nothing about the f1–f25
// search trajectories — proved against a golden generated before dyn
// existed. (That the dyn scenarios reproduce, match their goldens and are
// deterministic is the conformance suite's, conformance_test.go.)

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// trajectory renders one scenario's search trajectory in the fixed format
// shared with the golden generator: every deterministic per-round datum,
// nothing wall-clock dependent.
func trajectory(sc *failures.Scenario, rep *core.Report) string {
	var b strings.Builder
	script := "none"
	if rep.Script != nil {
		script = fmt.Sprintf("%s#%d", rep.Script.Site, rep.Script.Occurrence)
	}
	fmt.Fprintf(&b, "%s reproduced=%v rounds=%d script=%s\n", sc.ID, rep.Reproduced, rep.Rounds, script)
	for _, rd := range rep.RoundLog {
		inj := "none"
		if rd.Injected != nil {
			inj = fmt.Sprintf("%s#%d", rd.Injected.Site, rd.Injected.Occurrence)
		}
		fmt.Fprintf(&b, "round %d inj=%s sat=%v rank=%d missing=%d window=%d\n",
			rd.N, inj, rd.Satisfied, rd.RootRank, rd.MissingObs, rd.WindowSize)
	}
	return b.String()
}

const trajectoryGolden = "testdata/site_trajectories.golden"

// TestSiteSearchUnchangedByDynEnumeration: the f1–f25 search trajectories
// must be byte-equal to the golden captured before the dyn target and its
// scenarios existed — registering more scenarios and target systems must
// not perturb any other search. The pair-class scenarios (f30–f31) and
// partial-class scenarios (f32–f34) postdate the golden and search
// different spaces, so they are excluded like the dyn ones.
func TestSiteSearchUnchangedByDynEnumeration(t *testing.T) {
	var b strings.Builder
	for _, sc := range failures.All() {
		if sc.System == "dyn" || sc.Searches(core.ClassPair) || sc.Searches(core.ClassPartial) {
			continue
		}
		tgt := target(t, sc.ID)
		rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500})
		b.WriteString(trajectory(sc, rep))
	}
	got := b.String()
	want, err := os.ReadFile(trajectoryGolden)
	if err != nil {
		t.Fatalf("read trajectory golden: %v", err)
	}
	if got != string(want) {
		t.Fatal("f1–f25 search trajectories changed with the dyn target registered; diff the golden to locate the drift")
	}
}
