package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"anduril/internal/des"
	"anduril/internal/inject"
)

// toyWorkload logs a few messages, reaches a fault site thrice and blocks
// a thread when the second reach is injected.
func toyWorkload(env *Env) {
	cond := des.NewCond(env.Sim, "toy-wait")
	env.Sim.Go("worker-1", func() {
		env.Log.Infof("worker starting")
		for i := 0; i < 3; i++ {
			if err := env.FI.Reach("toy.step", inject.IO); err != nil {
				env.Log.Errorf("step %d failed: %s", i, err)
				cond.Wait("worker-1", func() {})
				return
			}
			env.Log.Infof("step %d ok", i)
		}
		if err := env.Disk.Write("toy.save", "out/result", []byte("done")); err != nil {
			env.Log.Errorf("save failed: %s", err)
			return
		}
		env.Log.Infof("worker finished 42 steps")
	})
}

// run is Run in a fresh environment, failing the test on a trial error.
func run(t *testing.T, seed int64, plan *inject.Plan, w Workload) *Result {
	t.Helper()
	r, err := Run(nil, nil, seed, plan, w, des.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExecuteFreeRun(t *testing.T) {
	r := run(t, 1, nil, toyWorkload)
	if _, ok := r.Env.FI.Injected(); ok {
		t.Fatal("free run injected")
	}
	if counts := r.Env.FI.Counts(); counts["toy.step"] != 3 || counts["toy.save"] != 1 {
		t.Fatalf("counts: %v", counts)
	}
	if n := len(r.Env.FI.Trace()); n != 4 {
		t.Fatalf("trace: %d", n)
	}
	if blocked := r.Env.Sim.Blocked(); len(blocked) != 0 {
		t.Fatalf("blocked: %v", blocked)
	}
	if !r.Env.Disk.Exists("out/result") {
		t.Fatal("disk state not visible")
	}
	if r.Events == 0 {
		t.Fatal("no events recorded")
	}
}

func TestExecuteWithInjection(t *testing.T) {
	r := run(t, 1, inject.Exact(inject.Instance{Site: "toy.step", Occurrence: 2}), toyWorkload)
	if ev, ok := r.Env.FI.Injected(); !ok || ev.Occurrence != 2 {
		t.Fatalf("injection: %+v", ev)
	}
	if !r.BlockedOn("toy-wait") {
		t.Fatalf("worker should be blocked: %v", r.Env.Sim.Blocked())
	}
	if r.Env.Disk.Exists("out/result") {
		t.Fatal("result written despite fault")
	}
	if n := len(r.Env.FI.Trace()); n != 0 {
		t.Fatalf("an injection run kept %d reaches", n)
	}
}

func TestLogContainsSanitized(t *testing.T) {
	r := run(t, 1, nil, toyWorkload)
	if !r.LogContains("worker finished 7 steps") {
		t.Fatal("digit-insensitive match failed")
	}
	if !r.LogContainsExact("worker finished 42 steps") {
		t.Fatal("exact match failed")
	}
	if r.LogContainsExact("worker finished 7 steps") {
		t.Fatal("exact match should be digit-sensitive")
	}
	if r.LogContains("no such message") {
		t.Fatal("bogus match")
	}
}

func TestRenderLogShape(t *testing.T) {
	r := run(t, 1, nil, toyWorkload)
	text := r.RenderLog()
	if len(text) == 0 {
		t.Fatal("empty render")
	}
	// Must parse back to the same number of entries.
	if got := len(r.Entries); got == 0 {
		t.Fatal("no entries")
	}
}

func TestEnvWiring(t *testing.T) {
	env := NewEnv(9, nil)
	if env.FI.Thread() != "main" {
		t.Fatalf("thread outside events: %q", env.FI.Thread())
	}
	var thread string
	env.Sim.Go("abc", func() { thread = env.FI.Thread() })
	env.Sim.Run(des.Second)
	if thread != "abc" {
		t.Fatalf("thread inside event: %q", thread)
	}
	if env.FI.LogPos() != 0 {
		t.Fatal("log pos should start at 0")
	}
	env.Log.Infof("x")
	if env.FI.LogPos() != 1 {
		t.Fatal("log pos not wired")
	}
}

// panicWorkload logs, then panics from inside a simulated event.
func panicWorkload(env *Env) {
	env.Sim.Go("worker-1", func() {
		env.Log.Infof("about to fail")
		panic("toy implementation bug")
	})
}

func TestTryExecuteRecoversPanic(t *testing.T) {
	res, err := Run(context.Background(), nil, 1, nil, panicWorkload, des.Second, 0)
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	var te *TrialError
	if !errors.As(err, &te) || te.Class != ClassPanic {
		t.Fatalf("err=%v, want TrialError class %q", err, ClassPanic)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if !res.LogContains("about to fail") {
		t.Fatal("partial result lost the pre-panic log")
	}
}

func TestTryExecuteEventBudget(t *testing.T) {
	livelock := func(env *Env) {
		var spin func()
		spin = func() { env.Sim.Go("spinner", spin) }
		env.Sim.Go("spinner", spin)
	}
	res, err := Run(nil, nil, 1, nil, livelock, des.Second, 0)
	var te *TrialError
	if !errors.As(err, &te) || te.Class != ClassEventBudget {
		t.Fatalf("err=%v, want TrialError class %q", err, ClassEventBudget)
	}
	if res.Events != EventBudget {
		t.Fatalf("executed %d events, want the budget (%d)", res.Events, EventBudget)
	}
}

func TestTryExecuteCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	livelock := func(env *Env) {
		var spin func()
		spin = func() { env.Sim.Go("spinner", spin) }
		env.Sim.Go("spinner", spin)
	}
	_, err := Run(ctx, nil, 1, nil, livelock, des.Second, 0)
	var te *TrialError
	if !errors.As(err, &te) || te.Class != ClassInterrupted {
		t.Fatalf("err=%v, want TrialError class %q", err, ClassInterrupted)
	}
}

// Run on a healthy workload matches the run its watchdogs wrap, driven by
// hand: a fresh environment, the workload, the simulation to the horizon.
func TestTryExecuteMatchesExecute(t *testing.T) {
	plan := inject.Exact(inject.Instance{Site: "toy.step", Occurrence: 2})
	env := NewEnv(7, plan)
	toyWorkload(env)
	events := env.Sim.Run(des.Second)
	wantInj, _ := env.FI.Injected()

	got := run(t, 7, plan, toyWorkload)
	if got.RenderLog() != env.Log.Render() {
		t.Fatal("Run's log differs from the reference run's")
	}
	if gotInj, ok := got.Env.FI.Injected(); !ok || gotInj != wantInj {
		t.Fatalf("injection differs: %+v vs %+v", gotInj, wantInj)
	}
	if got.Events != events {
		t.Fatalf("events %d vs %d", got.Events, events)
	}
}

// TestRunTracesExactlyWithoutPlan: a run without a plan keeps the reach
// trace, a run with one keeps none but still records its injection — also
// in a recycled environment that last ran the other kind.
func TestRunTracesExactlyWithoutPlan(t *testing.T) {
	step2 := inject.Instance{Site: "toy.step", Occurrence: 2}
	var env *Env
	for i, plan := range []*inject.Plan{nil, inject.Exact(step2), nil} {
		r, err := Run(nil, env, 1, plan, toyWorkload, des.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		trace := r.Env.FI.Trace()
		ev, injected := r.Env.FI.Injected()
		switch {
		case plan != nil && len(trace) != 0:
			t.Fatalf("run %d: an injection run kept %d reaches", i, len(trace))
		case plan != nil && (!injected || ev.Site != step2.Site || ev.Occurrence != step2.Occurrence):
			t.Fatalf("run %d: injection not recorded: %+v, %v", i, ev, injected)
		case plan == nil && injected:
			t.Fatalf("run %d: a free run injected %+v", i, ev)
		case plan == nil && !reflect.DeepEqual(sites(trace), []string{"toy.step", "toy.step", "toy.step", "toy.save"}):
			t.Fatalf("run %d: free run's trace: %v", i, sites(trace))
		}
		env = r.Release()
	}
}

func sites(trace []inject.TraceEvent) []string {
	var out []string
	for _, ev := range trace {
		out = append(out, ev.Site)
	}
	return out
}
