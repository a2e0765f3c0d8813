package cluster

import (
	"context"
	"errors"
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

func TestExecuteFreeRun(t *testing.T) {
	r := Execute(1, nil, true, toyWorkload, des.Second)
	if r.DidInject {
		t.Fatal("free run injected")
	}
	if r.Counts["toy.step"] != 3 || r.Counts["toy.save"] != 1 {
		t.Fatalf("counts: %v", r.Counts)
	}
	if len(r.Trace) != 4 {
		t.Fatalf("trace: %d", len(r.Trace))
	}
	if len(r.Blocked) != 0 {
		t.Fatalf("blocked: %v", r.Blocked)
	}
	if !r.Env.Disk.Exists("out/result") {
		t.Fatal("disk state not visible")
	}
	if r.Events == 0 {
		t.Fatal("no events recorded")
	}
}

func TestExecuteWithInjection(t *testing.T) {
	r := Execute(1, inject.Exact(inject.Instance{Site: "toy.step", Occurrence: 2}), false, toyWorkload, des.Second)
	if !r.DidInject || r.Injected.Occurrence != 2 {
		t.Fatalf("injection: %+v", r.Injected)
	}
	if !r.BlockedOn("toy-wait") {
		t.Fatalf("worker should be blocked: %v", r.Blocked)
	}
	if r.Env.Disk.Exists("out/result") {
		t.Fatal("result written despite fault")
	}
	if len(r.Trace) != 0 {
		t.Fatal("trace kept with keepTrace=false")
	}
}

func TestLogContainsSanitized(t *testing.T) {
	r := Execute(1, nil, false, toyWorkload, des.Second)
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
	r := Execute(1, nil, false, toyWorkload, des.Second)
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
	res, err := TryExecuteOn(context.Background(), nil, 1, nil, true, panicWorkload, des.Second, 0)
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
	res, err := TryExecuteOn(context.Background(), nil, 1, nil, false, livelock, des.Second, 2000)
	var te *TrialError
	if !errors.As(err, &te) || te.Class != ClassEventBudget {
		t.Fatalf("err=%v, want TrialError class %q", err, ClassEventBudget)
	}
	if res.Events != 2000 {
		t.Fatalf("executed %d events, want the budget (2000)", res.Events)
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
	_, err := TryExecuteOn(ctx, nil, 1, nil, false, livelock, des.Second, 0)
	var te *TrialError
	if !errors.As(err, &te) || te.Class != ClassInterrupted {
		t.Fatalf("err=%v, want TrialError class %q", err, ClassInterrupted)
	}
}

// TryExecuteOn in a fresh environment on a healthy workload matches Execute exactly.
func TestTryExecuteMatchesExecute(t *testing.T) {
	plan := inject.Exact(inject.Instance{Site: "toy.step", Occurrence: 2})
	want := Execute(7, plan, true, toyWorkload, des.Second)
	got, err := TryExecuteOn(context.Background(), nil, 7, plan, true, toyWorkload, des.Second, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.RenderLog() != want.RenderLog() {
		t.Fatal("TryExecuteOn log differs from Execute")
	}
	if got.DidInject != want.DidInject || got.Injected != want.Injected {
		t.Fatalf("injection differs: %+v vs %+v", got.Injected, want.Injected)
	}
	if got.Events != want.Events {
		t.Fatalf("events %d vs %d", got.Events, want.Events)
	}
}
