package core_test

// Tests for the resilient search runtime: trial isolation (target panics,
// livelocks and oracle panics degrade to inconclusive rounds instead of
// killing the process), the watchdogs, and cancellation.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

func lines(events []trace.Event) []string {
	out := make([]string, len(events))
	for i := range events {
		out[i] = trace.Line(&events[i])
	}
	return out
}

// normalized is the report's canonical JSON: everything but the wall-clock
// measurements, the only fields two executions of one search differ in.
func normalized(t *testing.T, rep *core.Report) string {
	t.Helper()
	raw, err := core.CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// pickPoison finds a baseline round whose injected instance is not the
// final script — a candidate the search tries and moves past, which the
// isolation tests turn into a trap.
func pickPoison(t *testing.T, rep *core.Report) inject.Instance {
	t.Helper()
	for _, rd := range rep.RoundLog {
		if rd.Injected != nil && *rd.Injected != *rep.Script {
			return *rd.Injected
		}
	}
	t.Fatal("baseline has no non-script injection to poison")
	return inject.Instance{}
}

// poisonWorkload wraps a target so that injecting the poison instance
// triggers trap (from a watcher actor polling the injection runtime). An
// instance with a path is matched by its path, as a plan matches it.
func poisonWorkload(tgt *core.Target, poison inject.Instance, trap func(env *cluster.Env)) *core.Target {
	cp := *tgt
	orig := tgt.Workload
	cp.Workload = func(env *cluster.Env) {
		orig(env)
		fired := false
		env.Sim.Every("poison-watch", des.Millisecond, func() {
			if fired {
				return
			}
			for _, ev := range env.FI.InjectedAll() {
				hit := ev.Occurrence == poison.Occurrence
				if poison.Path != "" {
					hit = env.FI.PathOf(ev.Site, ev.Addr) == poison.Path
				}
				if ev.Site == poison.Site && hit {
					fired = true
					trap(env)
					return
				}
			}
		})
	}
	return &cp
}

func inconclusiveClasses(events []trace.Event) []string {
	var out []string
	for i := range events {
		if events[i].Type == trace.Inconclusive {
			out = append(out, events[i].Class)
		}
	}
	return out
}

// TestPanicIsolation: a target that panics whenever one specific candidate
// is injected must not kill the process; the poisoned rounds degrade to
// inconclusive and the search still reproduces the failure.
func TestPanicIsolation(t *testing.T) {
	tgt := target(t, "f1")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	baseline := core.Reproduce(tgt, base)
	if !baseline.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	poison := pickPoison(t, baseline)

	wrapped := poisonWorkload(tgt, poison, func(env *cluster.Env) {
		panic("poisoned trial: injected " + poison.Site)
	})
	var mem trace.Memory
	opts := base
	opts.Trace = &mem
	rep := core.Reproduce(wrapped, opts)
	if !rep.Reproduced {
		t.Fatalf("search died under a panicking target: %+v", rep)
	}
	if rep.InconclusiveRounds < 1 {
		t.Fatal("no inconclusive rounds recorded for the poisoned candidate")
	}
	classes := inconclusiveClasses(mem.Events)
	if len(classes) == 0 || classes[0] != cluster.ClassPanic {
		t.Fatalf("inconclusive classes = %v, want leading %q", classes, cluster.ClassPanic)
	}
	// The report mirrors the trace.
	found := false
	for _, rd := range rep.RoundLog {
		if rd.Inconclusive && rd.Failure == cluster.ClassPanic {
			found = true
		}
	}
	if !found {
		t.Fatal("report has no inconclusive round of class panic")
	}
}

// TestLivelockWatchdog: a poisoned trial that spins in a zero-delay
// self-scheduling loop never advances virtual time, so only the event
// budget can end it. The round must degrade to inconclusive (class
// event-budget) within the budget, and the search must still reproduce.
func TestLivelockWatchdog(t *testing.T) {
	tgt := target(t, "f1")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	baseline := core.Reproduce(tgt, base)
	if !baseline.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	poison := pickPoison(t, baseline)

	wrapped := poisonWorkload(tgt, poison, func(env *cluster.Env) {
		var spin func()
		spin = func() { env.Sim.Go("livelock", spin) }
		env.Sim.Go("livelock", spin)
	})
	var mem trace.Memory
	opts := base
	opts.Trace = &mem
	rep := core.Reproduce(wrapped, opts)
	if !rep.Reproduced {
		t.Fatalf("search hung or died under a livelocked target: %+v", rep)
	}
	if rep.InconclusiveRounds < 1 {
		t.Fatal("no inconclusive rounds recorded for the livelocked candidate")
	}
	classes := inconclusiveClasses(mem.Events)
	if len(classes) == 0 || classes[0] != cluster.ClassEventBudget {
		t.Fatalf("inconclusive classes = %v, want leading %q", classes, cluster.ClassEventBudget)
	}
}

// TestOraclePanicDegrades: an oracle that panics on one specific injection
// is recovered into an inconclusive round of class oracle.
func TestOraclePanicDegrades(t *testing.T) {
	tgt := target(t, "f1")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	baseline := core.Reproduce(tgt, base)
	if !baseline.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	poison := pickPoison(t, baseline)

	cp := *tgt
	orig := tgt.Oracle
	cp.Oracle.Check = func(r *cluster.Result) bool {
		for _, ev := range r.Env.FI.InjectedAll() {
			if ev.Site == poison.Site && ev.Occurrence == poison.Occurrence {
				panic("oracle bug on " + poison.Site)
			}
		}
		return orig.Satisfied(r)
	}
	var mem trace.Memory
	opts := base
	opts.Trace = &mem
	rep := core.Reproduce(&cp, opts)
	if !rep.Reproduced {
		t.Fatalf("search died under a panicking oracle: %+v", rep)
	}
	if rep.InconclusiveRounds < 1 {
		t.Fatal("no inconclusive rounds recorded for the oracle panic")
	}
	classes := inconclusiveClasses(mem.Events)
	if len(classes) == 0 || classes[0] != cluster.ClassOracle {
		t.Fatalf("inconclusive classes = %v, want leading %q", classes, cluster.ClassOracle)
	}
}

// TestInconclusivePathRoundMarksItsFreeRunInstance: under path addressing a
// run can reach a candidate's path at another occurrence than the free run
// did, and the round that degrades to inconclusive on it must still take
// the candidate's own free-run instance out of the search — marking the
// run-local occurrence would leave the poisoned address untried, to be
// injected again. Each baseline's first unsatisfied injection whose
// occurrence differs from its candidate's becomes a panic.
func TestInconclusivePathRoundMarksItsFreeRunInstance(t *testing.T) {
	for _, c := range []struct {
		id   string
		seed int64
	}{{"f4", 17000052}, {"f7", 1000004}} {
		t.Run(c.id, func(t *testing.T) {
			t.Parallel()
			tgt := target(t, c.id)
			opts := core.Options{Strategy: core.FullFeedback, Seed: c.seed, Addressing: core.AddrPath}
			var mem trace.Memory
			traced := opts
			traced.Trace = &mem
			if !core.Reproduce(tgt, traced).Reproduced {
				t.Fatal("baseline not reproduced")
			}
			var poison inject.Instance
			candOcc := map[string]int{}
			for _, ev := range mem.Events {
				if ev.Type == trace.RoundStart {
					clear(candOcc)
					for _, cand := range ev.Candidates {
						candOcc[cand.Path] = cand.Occ
					}
				}
				occ, armed := candOcc[ev.Path]
				if ev.Type == trace.Injected && !ev.Satisfied && ev.Path != "" && armed && occ != ev.Occ {
					poison = inject.Instance{Site: ev.Site, Occurrence: ev.Occ, Path: ev.Path}
					break
				}
			}
			if poison.Path == "" {
				t.Fatal("baseline reaches no candidate's path at another occurrence")
			}

			wrapped := poisonWorkload(tgt, poison, func(*cluster.Env) { panic("poisoned trial: injected " + poison.Path) })
			rep := core.Reproduce(wrapped, opts)
			if !rep.Reproduced || rep.InconclusiveRounds < 1 {
				t.Fatalf("reproduced %v with %d inconclusive rounds, want a reproduction past the poison", rep.Reproduced, rep.InconclusiveRounds)
			}
			injected := 0
			for _, rd := range rep.RoundLog {
				if rd.Injected != nil && rd.Injected.Path == poison.Path {
					injected++
				}
			}
			if injected != 1 {
				t.Fatalf("%d rounds injected %s, want 1", injected, poison.Path)
			}
		})
	}
}

// TestFreeRunPanicIsFatalButContained: a target that always panics cannot
// be searched at all — but the process survives and the report says why.
func TestFreeRunPanicIsFatalButContained(t *testing.T) {
	tgt := target(t, "f1")
	cp := *tgt
	cp.Workload = func(env *cluster.Env) {
		env.Sim.Go("broken", func() { panic("boot failure") })
	}
	var mem trace.Memory
	rep := core.Reproduce(&cp, core.Options{Strategy: core.FullFeedback, Seed: 1, Trace: &mem})
	if rep.Reproduced {
		t.Fatal("reproduced with a target that cannot even boot")
	}
	if rep.Error == "" || !strings.Contains(rep.Error, "free run failed twice") {
		t.Fatalf("Error = %q, want free-run failure", rep.Error)
	}
	if n := len(mem.Events); n == 0 || mem.Events[n-1].Type != trace.Outcome || mem.Events[n-1].Reason != trace.ReasonError {
		t.Fatalf("trace does not end in a %s outcome", trace.ReasonError)
	}
}

// TestVerifyIsAWatchedTrial: Verify and Replay replay a script under the
// trial watchdogs. A target that panics under its own script, one that
// livelocks under it and an oracle that panics judging it do not reproduce,
// and Replay names each one's failure class — the process survives, and the
// livelock ends within the event budget, well before the deadline — and
// the same script on the intact target still does, in the environments
// those replays left.
func TestVerifyIsAWatchedTrial(t *testing.T) {
	tgt := target(t, "f3")
	rep := core.Reproduce(tgt, core.Options{Seed: 1})
	if !rep.Reproduced {
		t.Fatal("f3 not reproduced")
	}
	script := *rep.Script
	spin := func(env *cluster.Env) {
		var spin func()
		spin = func() { env.Sim.Go("livelock", spin) }
		env.Sim.Go("livelock", spin)
	}
	badOracle := *tgt
	badOracle.Oracle.Check = func(*cluster.Result) bool { panic("oracle bug") }
	const deadline = 30 * time.Second
	for _, row := range []struct {
		name  string
		tgt   *core.Target
		class string // "" = the replay is judged and reproduces
	}{
		{"intact", tgt, ""},
		{"panic", poisonWorkload(tgt, script, func(*cluster.Env) { panic("poisoned replay") }), cluster.ClassPanic},
		{"livelock", poisonWorkload(tgt, script, spin), cluster.ClassEventBudget},
		{"oracle-panic", &badOracle, cluster.ClassOracle},
		{"intact-after", tgt, ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			within := func(what string, f func()) {
				done := make(chan struct{})
				go func() {
					defer close(done)
					f()
				}()
				select {
				case <-done:
				case <-time.After(deadline):
					t.Fatalf("%s did not return within %v", what, deadline)
				}
			}
			want := row.class == ""
			var verified bool
			within("Verify", func() { verified = core.Verify(row.tgt, script, rep.ScriptSeed) })
			if verified != want {
				t.Fatalf("Verify = %v, want %v", verified, want)
			}
			var sat bool
			var err error
			within("Replay", func() { _, sat, err = core.Replay(row.tgt, rep.ScriptSeed, script) })
			var te *cluster.TrialError
			if sat != want || (want && err != nil) || (!want && (!errors.As(err, &te) || te.Class != row.class)) {
				t.Fatalf("Replay = (%v, %v), want (%v, class %q)", sat, err, want, row.class)
			}
		})
	}
}

// TestInterruptedTraceHasNoOutcome: a search cancelled between rounds
// stops there, with an interrupted report, no reason and no outcome event:
// it did not end, it stopped. The context is cancelled by the trace sink as
// round 2 is recorded, at a point a drained daemon's cancellation can reach.
func TestInterruptedTraceHasNoOutcome(t *testing.T) {
	tgt := target(t, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mem trace.Memory
	sink := sinkFunc(func(ev *trace.Event) {
		mem.Emit(ev)
		if ev.Round == 2 && ev.Type == trace.Feedback {
			cancel()
		}
	})
	rep := core.Reproduce(tgt, core.Options{
		Strategy: core.FullFeedback, Seed: 1, Window: 1,
		Context: ctx, Trace: sink,
	})
	if !rep.Interrupted || rep.Reason != "" || rep.Rounds != 2 {
		t.Fatalf("interrupted=%v after %d rounds with reason %q, want an interrupted report after round 2 and no reason",
			rep.Interrupted, rep.Rounds, rep.Reason)
	}
	for i := range mem.Events {
		if mem.Events[i].Type == trace.Outcome {
			t.Fatal("interrupted trace carries an outcome event")
		}
	}
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(*trace.Event)

func (f sinkFunc) Emit(ev *trace.Event) { f(ev) }
