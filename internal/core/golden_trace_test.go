package core_test

// The shape of a trace stream. (Its bytes — golden-pinned, identical across
// runs — are the conformance suite's, conformance_test.go.)

import (
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

// A trace stream is well-formed: starts with free_run, ends with outcome,
// decodes cleanly, and its aggregate stats agree with the report.
func TestTraceWellFormed(t *testing.T) {
	sc, _ := failures.ByID("f17")
	tgt := target(t, sc.ID)
	mem := &trace.Memory{}
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500, Trace: mem})
	if len(mem.Events) < 3 {
		t.Fatalf("only %d events", len(mem.Events))
	}
	if mem.Events[0].Type != trace.FreeRun {
		t.Fatalf("first event %s, want free_run", mem.Events[0].Type)
	}
	last := mem.Events[len(mem.Events)-1]
	if last.Type != trace.Outcome {
		t.Fatalf("last event %s, want outcome", last.Type)
	}
	if last.Reproduced != rep.Reproduced || last.Rounds != rep.Rounds {
		t.Fatalf("outcome (reproduced=%v rounds=%d) disagrees with report (%v, %d)",
			last.Reproduced, last.Rounds, rep.Reproduced, rep.Rounds)
	}
	if rep.Reproduced && (last.Site != rep.Script.Site || last.Occ != rep.Script.Occurrence ||
		last.ScriptSeed != rep.ScriptSeed || last.Reason != trace.ReasonReproduced) {
		t.Fatalf("outcome script %s#%d seed %d reason %s disagrees with report %v seed %d",
			last.Site, last.Occ, last.ScriptSeed, last.Reason, *rep.Script, rep.ScriptSeed)
	}
	stats := trace.AggregateStats(mem.Events)
	if stats.Rounds != rep.Rounds {
		t.Fatalf("stats.Rounds=%d, report.Rounds=%d", stats.Rounds, rep.Rounds)
	}
	if stats.Injections == 0 || !stats.Reproduced {
		t.Fatalf("stats: %+v", stats)
	}
	// One free_run event, one outcome, and a decision per non-empty round.
	if stats.Events[trace.FreeRun] != 1 || stats.Events[trace.Outcome] != 1 {
		t.Fatalf("event counts: %v", stats.Events)
	}
}

// The terminal outcome distinguishes the guards: an unreproducible search
// under a tiny round cap reports round-cap; an exhausted queue reports
// fault-space exhaustion.
func TestTraceOutcomeReasons(t *testing.T) {
	sc, _ := failures.ByID("f17")
	tgt := target(t, sc.ID)
	mem := &trace.Memory{}
	core.Reproduce(tgt, core.Options{Strategy: core.Exhaustive, Seed: 1, MaxRounds: 1, Trace: mem})
	last := mem.Events[len(mem.Events)-1]
	if last.Type != trace.Outcome || last.Reproduced {
		t.Fatalf("outcome: %+v", last)
	}
	if last.Reason != trace.ReasonRoundCap {
		t.Fatalf("reason %q, want %q", last.Reason, trace.ReasonRoundCap)
	}

	// The CrashTuner queue for a failure without meta-info sites can drain
	// before the cap: the outcome must say exhausted, not round-cap.
	mem = &trace.Memory{}
	rep := core.Reproduce(tgt, core.Options{Strategy: core.CrashTuner, Seed: 1, MaxRounds: 500, Trace: mem})
	last = mem.Events[len(mem.Events)-1]
	if !rep.Reproduced && rep.Rounds < 500 && last.Reason != trace.ReasonExhausted {
		t.Fatalf("reason %q after %d rounds, want %q", last.Reason, rep.Rounds, trace.ReasonExhausted)
	}
}

// A strategy that never arms a pair cannot exhaust a fault space that holds
// pairs: on the pair-only failures, every queue row and multiply-feedback
// ends class-not-searched, in the report and in the trace outcome.
func TestClassNotSearched(t *testing.T) {
	rows := []core.Strategy{core.Exhaustive, core.MultiplyFeedback, core.FATE, core.CrashTuner, core.StackTrace, core.Random}
	for _, id := range []string{"f30", "f31"} {
		tgt := target(t, id)
		for _, s := range rows {
			mem := &trace.Memory{}
			rep := core.Reproduce(tgt, core.Options{Strategy: s, Seed: 1, MaxRounds: 500, Trace: mem})
			last := mem.Events[len(mem.Events)-1]
			if rep.Reproduced || rep.Reason != trace.ReasonClassNotSearched || last.Reason != rep.Reason {
				t.Errorf("%s %s: reproduced=%v after %d rounds, reason %q (trace %q), want %q",
					id, s, rep.Reproduced, rep.Rounds, rep.Reason, last.Reason, trace.ReasonClassNotSearched)
			}
		}
	}
}
