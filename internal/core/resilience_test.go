package core_test

// Tests for the resilient search runtime: checkpoint/resume equivalence
// (a killed-and-resumed search is byte-identical to an uninterrupted one),
// trial isolation (target panics, livelocks and oracle panics degrade to
// inconclusive rounds instead of killing the process), and the watchdogs.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anduril/internal/checkpoint"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

// resumeFixtures are the dataset failures the equivalence tests run over.
// Window 1 slows f1/f4 down to 15+ rounds so an interruption leaves real
// work to resume; f9 (19 rounds) and f25 (an env delay-channel root past
// 100 rounds) are cells of the dataset sweep. The rows that name a
// strategy resume the other kinds of table row: a queue row of the §8.3
// ablations (161 rounds), a priority-driven row without feedback (133
// rounds) and a queue row of the §8.4 baselines (146 rounds).
var resumeFixtures = []struct {
	id       string
	window   int
	strategy core.Strategy
}{
	{"f1", 1, core.FullFeedback},
	{"f4", 1, core.FullFeedback},
	{"f9", 0, core.FullFeedback},
	{"f25", 0, core.FullFeedback},
	{"f12", 0, core.Exhaustive},
	{"f16", 0, core.SiteDistance},
	{"f4", 0, core.FATE},
}

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

// TestResumeTraceEquivalence is the core checkpoint contract, held by the
// conformance suite's resume-equivalent property over cells the dataset
// sweep does not have: a narrowed window, and the other kinds of strategy
// row. Each is killed half way (the forced final checkpoint) and resumed.
func TestResumeTraceEquivalence(t *testing.T) {
	for _, fx := range resumeFixtures {
		name := fx.id
		if fx.strategy != core.FullFeedback {
			name += "-" + string(fx.strategy)
		}
		c := cells[cellKey{fx.id, core.AddrOccurrence}]
		if fx.window != 0 || fx.strategy != core.FullFeedback {
			c = &cell{sc: c.sc, opts: core.Options{Strategy: fx.strategy, Seed: 1, MaxRounds: 500, Window: fx.window}}
		}
		t.Run(name, func(t *testing.T) {
			if c.observe().killAt < 2 {
				t.Fatalf("%s reproduces in %d rounds; the fixture must leave real work on both sides of the kill", fx.id, c.rep.Rounds)
			}
			resumeEquivalent(t, c)
		})
	}
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
// triggers trap (from a watcher actor polling the injection runtime).
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
				if ev.Site == poison.Site && ev.Occurrence == poison.Occurrence {
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

// TestVerifyIsAWatchedTrial: Verify replays a script under the trial
// watchdogs. A target that panics under its own script, one that livelocks
// under it and an oracle that panics judging it do not reproduce — the
// process survives, and the livelock ends within the event budget, well
// before the deadline — and the same script on the intact target still
// does, in the environments those replays left.
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
		name string
		tgt  *core.Target
		want bool
	}{
		{"intact", tgt, true},
		{"panic", poisonWorkload(tgt, script, func(*cluster.Env) { panic("poisoned replay") }), false},
		{"livelock", poisonWorkload(tgt, script, spin), false},
		{"oracle-panic", &badOracle, false},
		{"intact-after", tgt, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			done := make(chan bool, 1)
			go func() { done <- core.Verify(row.tgt, script, rep.ScriptSeed) }()
			select {
			case got := <-done:
				if got != row.want {
					t.Fatalf("Verify = %v, want %v", got, row.want)
				}
			case <-time.After(deadline):
				t.Fatalf("Verify did not return within %v", deadline)
			}
		})
	}
}

// TestResumeRejectsMismatchedCheckpoint: a checkpoint resumed against the
// wrong target, seed, strategy, fault classes, addressing, feedback step or
// combined-log runs is an error, never a silent wrong search.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	tgt := target(t, "f1")
	var ck core.Checkpoint
	opts := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1,
		Checkpoint: keepLast(&ck), CheckpointEvery: 2, StopAfterRound: 4}
	rep := core.Reproduce(tgt, opts)
	if !rep.Interrupted {
		t.Fatal("setup run not interrupted")
	}
	// The same search with a larger feedback step and combined logs, which
	// its checkpoint records.
	var tuned core.Checkpoint
	opts.Checkpoint, opts.Adjust, opts.RunsPerRound = keepLast(&tuned), 2, 2
	if rep := core.Reproduce(tgt, opts); !rep.Interrupted {
		t.Fatal("tuned setup run not interrupted")
	}

	cases := []struct {
		name string
		ck   core.Checkpoint
		tgt  *core.Target
		opts core.Options
		want string
	}{
		{"wrong target", ck, target(t, "f3"), core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}, "target"},
		{"wrong seed", ck, tgt, core.Options{Strategy: core.FullFeedback, Seed: 2, Window: 1}, "seed"},
		{"wrong strategy", ck, tgt, core.Options{Strategy: core.Random, Seed: 1, Window: 1}, "strategy"},
		{"wrong addressing", ck, tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1,
			Addressing: core.AddrPath}, "addressing"},
		{"wrong classes", ck, tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1,
			FaultClasses: []string{core.ClassSite, core.ClassEnv}}, "fault classes [site], resuming with [env site]"},
		{"wrong adjust", ck, tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, Adjust: 2},
			"adjust 1, resuming with 2"},
		{"wrong runs per round", ck, tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, RunsPerRound: 3},
			"1 runs per round, resuming with 3"},
		{"recorded adjust", tuned, tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, RunsPerRound: 2},
			"adjust 2, resuming with 1"},
		{"recorded runs per round", tuned, tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, Adjust: 2},
			"2 runs per round, resuming with 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := core.Resume(c.tgt, c.opts, c.ck)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}

	t.Run("missing checkpoint", func(t *testing.T) {
		missing, err := core.LoadCheckpoint(filepath.Join(t.TempDir(), "nope.json"))
		if err == nil {
			t.Fatal("a missing checkpoint file loaded")
		}
		if _, err := core.Resume(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}, missing); err == nil {
			t.Fatal("resume from no checkpoint succeeded")
		}
	})
}

// TestResumeRejectsCheckpointVersionSkew: an envelope one version older or
// newer than this build's — whatever that version is — must be rejected
// loudly by the envelope layer, never resumed into a search whose instance
// identities or occurrence counters it cannot describe. The skewed files
// are a real checkpoint with only the envelope version rewritten, so the
// next version bump needs no new fixture.
func TestResumeRejectsCheckpointVersionSkew(t *testing.T) {
	tgt := target(t, "f1")
	ck := filepath.Join(t.TempDir(), "ck.json")
	opts := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	killed := opts
	killed.Checkpoint, killed.CheckpointEvery, killed.StopAfterRound = core.CheckpointFile(ck), 2, 4
	if rep := core.Reproduce(tgt, killed); !rep.Interrupted || rep.CheckpointError != "" {
		t.Fatalf("setup run: interrupted=%v, checkpoint error %q", rep.Interrupted, rep.CheckpointError)
	}
	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	var env checkpoint.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	current := env.Version
	loaded, err := core.LoadCheckpoint(ck)
	if err != nil || loaded.Round != 4 {
		t.Fatalf("load the unmodified checkpoint: round %d, err %v", loaded.Round, err)
	}
	if _, err := core.Resume(tgt, opts, loaded); err != nil {
		t.Fatalf("resume from the unmodified checkpoint: %v", err)
	}
	for _, skew := range []struct {
		name string
		by   int
	}{{"older", -1}, {"newer", +1}} {
		t.Run(skew.name, func(t *testing.T) {
			env.Version = current + skew.by
			skewed, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "skewed.json")
			if err := os.WriteFile(path, skewed, 0o644); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("version %d, want %d", env.Version, current)
			if _, err := core.LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want a version-skew message naming both versions (%s)", err, want)
			}
		})
	}
}

// TestCheckpointRecordsAddressing: a path-addressed search round-trips its
// addressing mode through the checkpoint, and the restored search resumes
// without error under the same mode.
func TestCheckpointRecordsAddressing(t *testing.T) {
	tgt := target(t, "f1")
	var ck core.Checkpoint
	opts := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1,
		Addressing: core.AddrPath, Checkpoint: keepLast(&ck), CheckpointEvery: 2, StopAfterRound: 4}
	rep := core.Reproduce(tgt, opts)
	if !rep.Interrupted {
		t.Fatal("setup run not interrupted")
	}

	// Resuming in the default occurrence mode must fail: the tried set was
	// recorded against path identities.
	_, err := core.Resume(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}, ck)
	if err == nil || !strings.Contains(err.Error(), "addressing") {
		t.Fatalf("err = %v, want an addressing-mismatch error", err)
	}

	// Resuming under the recorded mode continues the search.
	resumed := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, Addressing: core.AddrPath}
	if _, err := core.Resume(tgt, resumed, ck); err != nil {
		t.Fatalf("resume under the recorded addressing mode: %v", err)
	}
}

// TestInterruptedTraceHasNoOutcome: the prefix property depends on an
// interrupted search never emitting an outcome event.
func TestInterruptedTraceHasNoOutcome(t *testing.T) {
	tgt := target(t, "f1")
	var mem trace.Memory
	rep := core.Reproduce(tgt, core.Options{
		Strategy: core.FullFeedback, Seed: 1, Window: 1,
		StopAfterRound: 2, Trace: &mem,
	})
	if !rep.Interrupted || rep.Reason != "" {
		t.Fatalf("interrupted=%v with reason %q, want an interrupted report and no reason", rep.Interrupted, rep.Reason)
	}
	for i := range mem.Events {
		if mem.Events[i].Type == trace.Outcome {
			t.Fatal("interrupted trace carries an outcome event")
		}
	}
}
