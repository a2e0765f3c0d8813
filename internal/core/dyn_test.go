package core_test

// End-to-end regressions for the dyn anti-entropy scenarios (f26–f29):
// feedback-driven reproduction finds the declared root cause, the search
// trace is byte-identical across runs and pinned by goldens, and
// registering the dyn target changes nothing about the f1–f25 search
// trajectories (proved against a golden generated before dyn existed).
//
// Regenerate the dyn trace goldens after an intentional change with:
//
//	go test ./internal/core -run TestDynGoldenTraces -update
//
// The trajectory golden (site_trajectories.golden) pins the pre-dyn
// behavior of f1–f25; regenerate it the same way only when the explorer
// itself changes, never to absorb a dyn-side effect.

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

var dynIDs = []string{"f26", "f27", "f28", "f29"}

// TestDynScenariosReproduceEndToEnd: the full feedback workflow finds the
// declared ground-truth root cause of every dyn scenario and the script
// verifies deterministically.
func TestDynScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range dynIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			sc, ok := failures.ByID(id)
			if !ok {
				t.Fatalf("scenario %s not registered", id)
			}
			tgt, err := sc.BuildTarget()
			if err != nil {
				t.Fatal(err)
			}
			rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500})
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
			}
			if rep.Script.Site != sc.RootSite {
				t.Fatalf("%s reproduced via %v, ground truth %s", id, *rep.Script, sc.RootSite)
			}
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s: script %v does not verify", id, *rep.Script)
			}
		})
	}
}

// dynTrace runs one dyn scenario's reproduction with a trace sink.
func dynTrace(t *testing.T, id string) []byte {
	t.Helper()
	sc, _ := failures.ByID(id)
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewWriter(&buf)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500, Trace: sink})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced {
		t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
	}
	return buf.Bytes()
}

// TestDynGoldenTraces pins the full search trajectory of each dyn
// scenario, and TestDynTraceDeterministic proves a second in-process run
// emits the identical byte stream.
func TestDynGoldenTraces(t *testing.T) {
	for _, id := range dynIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			got := dynTrace(t, id)
			compareGolden(t, fmt.Sprintf("testdata/%s.trace.jsonl", id), got)
		})
	}
}

func TestDynTraceDeterministic(t *testing.T) {
	for _, id := range dynIDs {
		a := dynTrace(t, id)
		b := dynTrace(t, id)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs produced different traces", id)
		}
	}
}

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
		tgt, err := sc.BuildTarget()
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
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
