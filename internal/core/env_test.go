package core_test

// End-to-end tests for the environment-fault search space: the env-rooted
// scenarios reproduce through the ranked search and their traces are
// deterministic. (That enabling env enumeration leaves the paper's 22
// site-rooted searches unchanged is pinned in classes_test.go.)

import (
	"fmt"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

// TestEnvScenariosReproduceEndToEnd is the tentpole acceptance test: each
// env-rooted failure's root instance is enumerated, ranked, injected and
// confirmed by the oracle, and the resulting script replays standalone.
func TestEnvScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range []string{"f23", "f24", "f25"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tgt := target(t, id)
			rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500})
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
			}
			if !rep.EnvRooted {
				t.Fatalf("%s reproduced by %v, not marked env-rooted", id, rep.Script)
			}
			if !inject.IsEnvSite(rep.Script.Site) {
				t.Fatalf("%s script %v is not an env pseudo-site", id, rep.Script)
			}
			// The script alone replays the failure deterministically: the
			// plan carries the env instance, so no enumeration flag needed.
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s script %v does not verify under seed %d", id, rep.Script, rep.ScriptSeed)
			}
		})
	}
}

// TestEnvTraceDeterminism runs the same env-rooted search twice and
// demands byte-identical traces — crash/restart scheduling, partition
// heals and delayed deliveries must introduce no nondeterminism.
func TestEnvTraceDeterminism(t *testing.T) {
	for _, id := range []string{"f23", "f24", "f25"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tgt := target(t, id)
			run := func() []string {
				var mem trace.Memory
				rep := core.Reproduce(tgt, core.Options{
					Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500, Trace: &mem,
				})
				if !rep.Reproduced {
					t.Fatalf("%s not reproduced", id)
				}
				return lines(mem.Events)
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("traces diverge at event %d:\n- %s\n+ %s", i+1, a[i], b[i])
				}
			}
		})
	}
}

// TestEnvInjectedTraceEvents: an env-rooted search's trace records the
// injection of its script as an env_injected event carrying the class,
// subject and duration of the executed fault.
func TestEnvInjectedTraceEvents(t *testing.T) {
	tgt := target(t, "f23")
	var mem trace.Memory
	rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500, Trace: &mem})
	if !rep.Reproduced {
		t.Fatal("f23 not reproduced")
	}
	found := false
	for i := range mem.Events {
		ev := &mem.Events[i]
		if ev.Type != trace.EnvInjected {
			continue
		}
		if ev.Site == rep.Script.Site && ev.Occ == rep.Script.Occurrence {
			found = true
			if ev.Class != string(inject.EnvCrash) || ev.Subject == "" || ev.Dur <= 0 {
				t.Fatalf("env_injected event incomplete: %+v", ev)
			}
			if l := trace.Line(ev); !strings.Contains(l, "env_injected") {
				t.Fatalf("rendered line does not name the event: %s", l)
			}
		}
	}
	if !found {
		t.Fatalf("no env_injected event for script %v", rep.Script)
	}
}

// roundSummary compresses a report to the fields that define the search
// trajectory — what was injected when, with which window, and the verdict.
func roundSummary(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reproduced=%v rounds=%d script=%v seed=%d\n",
		rep.Reproduced, rep.Rounds, rep.Script, rep.ScriptSeed)
	for _, rd := range rep.RoundLog {
		fmt.Fprintf(&b, "r%d inj=%v sat=%v w=%d\n", rd.N, rd.Injected, rd.Satisfied, rd.WindowSize)
	}
	return b.String()
}
