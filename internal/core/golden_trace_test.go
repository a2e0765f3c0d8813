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
// decodes cleanly, and its aggregate stats agree with the report. Every row
// emits one round event per round that runs — rounds 1..Report.Rounds in
// order, each before its round's injection, empty window or inconclusive
// trial, and none for a round that never selected (f2 at seed 150 ends at
// round 8's empty selection after 7 rounds). A second_pass directly precedes
// its round's round event, which carries the reset window.
func TestTraceWellFormed(t *testing.T) {
	type tcase struct {
		name       string
		id         string
		opts       core.Options
		secondPass int // round whose second_pass the trace must hold, 0 = any
	}
	var cases []tcase
	for _, s := range core.AllStrategies() {
		c := tcase{"f4/" + string(s), "f4", core.Options{Strategy: s, Seed: 1, MaxRounds: 500}, 0}
		if s == core.SiteDistanceLimit {
			c.secondPass = 15 // the limit-3 row exhausts f4's capped space in 14 rounds
		}
		cases = append(cases, c)
	}
	cases = append(cases, tcase{"f2/seed-150", "f2", core.Options{Seed: 150, MaxRounds: 500}, 0})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mem := &trace.Memory{}
			opts := c.opts
			opts.Trace = mem
			rep := core.Reproduce(target(t, c.id), opts)
			if len(mem.Events) < 2 {
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
			if stats.Rounds != rep.Rounds || stats.Reproduced != rep.Reproduced {
				t.Fatalf("stats: %d rounds, reproduced=%v; report: %d, %v", stats.Rounds, stats.Reproduced, rep.Rounds, rep.Reproduced)
			}
			if stats.Events[trace.FreeRun] != 1 || stats.Events[trace.Outcome] != 1 {
				t.Fatalf("event counts: %v", stats.Events)
			}

			opened, sawSecondPass := 0, false
			for i, ev := range mem.Events {
				switch ev.Type {
				case trace.RoundStart:
					if ev.Round != opened+1 {
						t.Fatalf("event %d: round event for round %d after round %d's", i, ev.Round, opened)
					}
					opened = ev.Round
				case trace.SecondPass:
					next := mem.Events[i+1]
					if next.Type != trace.RoundStart || next.Round != ev.Round || next.Window != core.DefaultWindow {
						t.Fatalf("round %d's second_pass is followed by %s (round %d, window %d), want its round event with window %d",
							ev.Round, next.Type, next.Round, next.Window, core.DefaultWindow)
					}
					sawSecondPass = sawSecondPass || ev.Round == c.secondPass
				case trace.Injected, trace.EnvInjected, trace.PartialInjected, trace.PairInjected,
					trace.WindowGrow, trace.Inconclusive:
					if ev.Round != opened {
						t.Fatalf("event %d: %s of round %d, but the last round event is round %d's", i, ev.Type, ev.Round, opened)
					}
				}
			}
			if opened != rep.Rounds {
				t.Fatalf("round events reach round %d, report ran %d", opened, rep.Rounds)
			}
			if c.secondPass > 0 && !sawSecondPass {
				t.Fatalf("no second_pass in round %d", c.secondPass)
			}
		})
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
