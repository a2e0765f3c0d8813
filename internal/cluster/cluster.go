// Package cluster wires one simulated run together: the DES kernel, run
// logger, fault-injection runtime, network and disk. Every trial — the free
// run of workflow step 1, an injection round of step 3, a dataset run, a
// script replay — is one Run call, watched for panics, livelock and
// cancellation, in an environment built from its seed and plan alone, so
// trials are hermetic and replayable. A search that owns its trials'
// results may hand a finished trial's Env back (Result.Release): the next
// Run is then built on the same memory, in the same state.
package cluster

import (
	"context"
	"fmt"
	"strings"

	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/logging"
	"anduril/internal/simdisk"
	"anduril/internal/simnet"
)

// Env is the environment a target system runs in for one round.
type Env struct {
	Sim  *des.Sim
	Log  *logging.Log
	FI   *inject.Runtime
	Net  *simnet.Net
	Disk *simdisk.Disk

	nodes       map[string]NodeControl
	convergence func() Convergence
}

// Convergence is an eventually-consistent target's self-report of replica
// agreement: whether every replica currently agrees with the acknowledged
// client state, and the virtual time at which the current agreement began.
// Oracles judge it with oracle.ConvergedWithin — "the replicas converged,
// and did so before the bound" — instead of an immediate invariant check.
type Convergence struct {
	Tracked   bool     // a probe was registered for this run
	Converged bool     // replicas agree with the expected state at the end
	Since     des.Time // virtual time the current agreement began
}

// RegisterConvergence installs the run's convergence probe. Eventually-
// consistent targets call it during workload construction; the probe is
// read once when the round is snapshotted, so it must be cheap and must
// not mutate system state.
func (e *Env) RegisterConvergence(probe func() Convergence) { e.convergence = probe }

// NodeControl is how a target system exposes a node to crash/restart
// environment faults: Crash tears the node's runtime state down (stop
// its loops, drop in-memory state), Restart brings it back with
// whatever state survives a real process crash. The network down-state
// around the outage is managed by the environment; the controls only
// handle the system-level teardown and recovery.
type NodeControl struct {
	Crash   func()
	Restart func()
}

// RegisterNode registers the crash/restart controls for a named node.
// Workloads call it during construction; nodes without controls still
// crash (the environment toggles their network down-state) but keep
// their runtime loops, which models a network-isolated rather than a
// killed process.
func (e *Env) RegisterNode(name string, ctl NodeControl) { e.nodes[name] = ctl }

// crashNode executes a crash environment fault at the cluster level:
// network down + system teardown now, restart + network up after the
// outage. It runs restart even without a registered control so the
// node's peers see it return.
func (e *Env) crashNode(node string, restartAfter des.Time) {
	ctl := e.nodes[node]
	e.Net.SetDown(node, true)
	if ctl.Crash != nil {
		ctl.Crash()
	}
	e.Sim.Schedule("env-restart", restartAfter, func() {
		e.Net.SetDown(node, false)
		if ctl.Restart != nil {
			ctl.Restart()
		}
		e.Log.Infof("env: node %s restarted", node)
	})
}

// NewEnv builds a fully-wired environment. seed drives all nondeterminism
// in the round; plan is the round's injection plan (nil = free run).
func NewEnv(seed int64, plan *inject.Plan) *Env {
	sim := des.New(seed)
	lg := logging.New(sim)
	fi := inject.NewRuntime(plan)
	fi.LogPos = lg.Pos
	fi.Thread = func() string {
		if c := sim.Current(); c != "" {
			return c
		}
		return "main"
	}
	fi.Now = sim.Now
	fi.Paths = sim
	net := simnet.New(sim, fi, lg, des.Millisecond, 4*des.Millisecond)
	disk := simdisk.New(fi, lg)
	env := &Env{Sim: sim, Log: lg, FI: fi, Net: net, Disk: disk, nodes: make(map[string]NodeControl)}
	net.OnCrash = env.crashNode
	env.trackPlanPaths()
	return env
}

// trackPlanPaths switches path tracking on when the run addresses by path,
// by its plan or by the features Run enabled: replaying a path-addressed
// script needs no flag, the plan itself proves paths are required.
func (e *Env) trackPlanPaths() {
	if e.FI.Active(inject.PathAddressing) {
		e.Sim.EnablePathTracking()
	}
}

// reset rebuilds the environment for another round under seed and plan, in
// the state NewEnv(seed, plan) returns but for path tracking, which Run sets:
// each part is emptied in place, on the memory the last round left.
func (e *Env) reset(seed int64, plan *inject.Plan) {
	e.Sim.Reset(seed)
	e.Log.Reset()
	e.FI.Reset(plan)
	e.Net.Reset()
	e.Disk.Reset()
	clear(e.nodes)
	e.convergence = nil
}

// Result is what a trial produced: the state the oracle judges and the
// observables the explorer feeds on. Everything else a run leaves — the
// injection runtime's counts, reach trace and injected reaches, the
// kernel's blocked actors — is read from Env, which holds it until the
// environment is released. Entries is the run's log itself, not a copy:
// read-only.
type Result struct {
	Env         *Env
	Entries     []logging.Entry // the run's log
	Events      int             // DES events executed
	Convergence Convergence     // replica-agreement probe (eventual-consistency targets)
}

// Workload builds a system inside env and schedules its driver; Run then
// runs the simulation.
type Workload func(env *Env)

// EventBudget caps the DES events of every trial. A livelocked target (a
// zero-delay self-scheduling loop) never advances virtual time, so the
// time horizon alone cannot stop it; the budget is the watchdog that
// bounds the run. The dataset's free runs execute under ~2k events, so a
// million-event trial is a livelock, not a slow run.
const EventBudget = 1 << 20

// Failure classes a TrialError carries, in the order the harness checks
// them: a panic out of the target system, a simulation that exhausted its
// event budget (livelock watchdog), an oracle that panicked judging the
// result, and an externally-cancelled run.
const (
	ClassPanic       = "panic"
	ClassEventBudget = "event-budget"
	ClassOracle      = "oracle"
	ClassInterrupted = "interrupted"
)

// TrialError describes why a trial could not produce a judgeable result.
// Class is one of the Class* constants; Detail is human-readable context
// (the panic value, the budget size, ...). Seed and Actor identify the
// subject: which trial seed produced the failure and — for panics —
// which actor (node thread) was executing when it fired, so the record
// pinpoints the node to blame.
type TrialError struct {
	Class  string
	Detail string
	Seed   int64
	Actor  string
}

func (e *TrialError) Error() string {
	msg := e.Class + ": " + e.Detail
	if e.Actor != "" {
		msg += " (actor " + e.Actor + ")"
	}
	if e.Seed != 0 {
		msg += fmt.Sprintf(" [seed %d]", e.Seed)
	}
	return msg
}

// Run performs one trial: build the environment under seed and plan (nil =
// the free run), switch feats on, run the workload to the horizon (or
// quiescence) and snapshot the result.
//
// The run keeps the reach trace exactly when it has no plan: the free run
// records the fault-site timeline the explorer ranks (workflow step 1), an
// injection round only injects and is judged (step 3, §7).
//
// Every run is watched: a panic in the workload or simulation is recovered
// into a *TrialError (class "panic"), EventBudget bounds the DES events
// (class "event-budget", so a livelocked workload cannot hang the caller),
// and a cancelled ctx interrupts the simulation (class "interrupted"; a nil
// ctx is never cancelled). On error the Result holds whatever the
// environment had produced so far — enough for diagnostics, not a
// judgeable run.
//
// feats opts the run into optional runtime features (inject.Features): env
// and partial pseudo-sites are counted and can be injected at, and under
// path addressing the kernel tracks the distributed call tree so every
// reach is assigned its path identity. A plan's own instances activate
// what they need, so feats matters for free runs and mixed windows.
//
// A nil env runs the trial in a fresh environment. A non-nil env, as
// Result.Release returned it, is rebuilt in place and the trial runs in it,
// indistinguishable from a trial in a fresh one.
func Run(ctx context.Context, env *Env, seed int64, plan *inject.Plan, w Workload, horizon des.Time, feats inject.Features) (res *Result, err error) {
	if env == nil {
		env = NewEnv(seed, plan)
	} else {
		env.reset(seed, plan)
	}
	env.FI.KeepTrace = plan == nil
	env.FI.Enable(feats)
	env.trackPlanPaths()
	env.Sim.EventBudget = EventBudget
	if ctx != nil {
		env.Sim.Watch(ctx)
	}
	defer func() {
		if p := recover(); p != nil {
			res = snapshot(env, 0)
			// A panic unwinds past the kernel's current-actor reset, so
			// Current() still names the actor whose event panicked.
			err = &TrialError{Class: ClassPanic, Detail: fmt.Sprint(p), Seed: seed, Actor: env.Sim.Current()}
		}
	}()
	w(env)
	res = snapshot(env, env.Sim.Run(horizon))
	switch {
	case env.Sim.Interrupted():
		err = &TrialError{Class: ClassInterrupted, Detail: "run cancelled", Seed: seed}
	case env.Sim.BudgetExhausted():
		err = &TrialError{Class: ClassEventBudget, Detail: fmt.Sprintf("exceeded %d events", EventBudget), Seed: seed}
	}
	return res, err
}

// Execute is Run in a fresh environment, its error dropped; keepTrace is
// ignored, since a run keeps its reach trace exactly when it has no plan.
//
// Deprecated: use Run. Kept only because the frozen benchmark harness
// (bench/probes.go) calls it; nothing else in the module does.
func Execute(seed int64, plan *inject.Plan, keepTrace bool, w Workload, horizon des.Time) *Result {
	res, _ := Run(nil, nil, seed, plan, w, horizon, 0)
	return res
}

// snapshot captures what a finished (or aborted) run produced.
func snapshot(env *Env, n int) *Result {
	res := &Result{Env: env, Entries: env.Log.Entries(), Events: n}
	if env.convergence != nil {
		res.Convergence = env.convergence()
	}
	return res
}

// Release ends the result's life and returns its environment for Run to
// build the next trial in. Only the owner of a result that nothing else
// retains may call it: the next trial overwrites the log Entries points
// into and everything Env holds, so the released result is poisoned — Env
// and Entries nil — and a reader that kept it fails loudly instead of
// reading another trial's log.
func (r *Result) Release() *Env {
	env := r.Env
	r.Env, r.Entries = nil, nil
	return env
}

// RenderLog renders the round's log as production-style text.
func (r *Result) RenderLog() string { return r.Env.Log.Render() }

// LogContains reports whether any log message (sanitized) contains the
// sanitized needle — the basic symptom check oracles use. An entry's
// sanitized message is the canonical string of the id it carries.
func (r *Result) LogContains(needle string) bool {
	sn := logdiff.Sanitize(needle)
	for i := range r.Entries {
		if strings.Contains(logging.Canonical(r.Entries[i].ID()), sn) {
			return true
		}
	}
	return false
}

// LogContainsExact reports whether any log message contains the needle
// verbatim (digit-sensitive, unlike LogContains).
func (r *Result) LogContainsExact(needle string) bool {
	for i := range r.Entries {
		if strings.Contains(r.Entries[i].Msg, needle) {
			return true
		}
	}
	return false
}

// BlockedOn reports whether some actor is stuck on the given condition
// label — the "stack trace shows thread stuck at X" symptom.
func (r *Result) BlockedOn(label string) bool { return r.Env.Sim.BlockedOn(label) }
