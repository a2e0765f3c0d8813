package core_test

// Tests for environment recycling: the engine builds a round's trials in the
// environments its booked rounds handed back. The conformance suite's
// `recycled` property holds every dataset search to the fresh-environment
// reference; these are the cases a clean search never reaches.

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/trace"
)

// envLog records one search: its JSONL trace and, in execution order, the
// environment every trial ran in with the trace round it belongs to (0: the
// free run). It is the search's trace sink and wraps its target.
type envLog struct {
	buf    bytes.Buffer
	w      *trace.Writer
	round  int
	envs   []*cluster.Env
	rounds []int
	failed map[int]bool // trial index -> its trap fired
}

func newEnvLog() *envLog {
	l := &envLog{failed: map[int]bool{}}
	l.w = trace.NewWriter(&l.buf)
	return l
}

func (l *envLog) Emit(ev *trace.Event) {
	if ev.Type == trace.RoundStart {
		l.round = ev.Round // a round event opens a round
	}
	l.w.Emit(ev)
}

func (l *envLog) watch(tgt *core.Target) *core.Target {
	cp := *tgt
	cp.Workload = func(env *cluster.Env) {
		l.envs, l.rounds = append(l.envs, env), append(l.rounds, l.round)
		tgt.Workload(env)
	}
	return &cp
}

// reuses returns, for every trial that ran in an environment an earlier
// trial had used, the index of that earlier trial.
func (l *envLog) reuses() map[int]int {
	out, last := map[int]int{}, map[*cluster.Env]int{}
	for i, env := range l.envs {
		if j, ok := last[env]; ok {
			out[i] = j
		}
		last[env] = i
	}
	return out
}

// sameSearch fails unless the recycling search and the fresh-environment one
// left the same trace and report.
func sameSearch(t *testing.T, rec, fresh *envLog, rep, ref *core.Report) {
	t.Helper()
	if err := rec.w.Err(); err != nil {
		t.Fatal(err)
	}
	if !sameTrace(t, fresh.buf.Bytes(), rec.buf.Bytes()) {
		t.Fatal("the recycling search differs from the one with a fresh environment per trial")
	}
	if a, b := normalized(t, rep), normalized(t, ref); a != b {
		t.Fatalf("final reports differ:\nrecycled: %s\nfresh:    %s", a, b)
	}
	if n := len(fresh.reuses()); n != 0 {
		t.Fatalf("the reference search reused %d environments", n)
	}
}

// TestFailedTrialsAreNotRecycled: the environment of a trial that panicked
// or ran out of event budget is never built in again — it stopped at an
// arbitrary point — while its retry, and every later round, still are the
// fresh-environment search's. The free run's environment is not reused
// within the search either: the search reads it to the end. The next search
// in the same workspace starts in the environments the first gave back,
// never in a failed one, and is the fresh-environment search too. (A
// cancelled trial ends the search, and its environment is left to the
// collector like a failed one's.)
func TestFailedTrialsAreNotRecycled(t *testing.T) {
	tgt := target(t, "f1")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	baseline := core.Reproduce(tgt, base)
	if !baseline.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	poison := pickPoison(t, baseline)
	traps := map[string]func(env *cluster.Env){
		cluster.ClassPanic: func(*cluster.Env) { panic("poisoned trial") },
		cluster.ClassEventBudget: func(env *cluster.Env) {
			var spin func()
			spin = func() { env.Sim.Go("livelock", spin) }
			env.Sim.Go("livelock", spin)
		},
	}
	for class, trap := range traps {
		t.Run(class, func(t *testing.T) {
			run := func(reproduce func(*core.Target, core.Options) *core.Report) (*core.Report, *envLog) {
				l := newEnvLog()
				opts := base
				opts.Trace = l
				return reproduce(l.watch(poisonWorkload(tgt, poison, func(env *cluster.Env) {
					l.failed[len(l.envs)-1] = true
					trap(env)
				})), opts), l
			}
			ws := new(core.Workspace)
			rep, rec := run(ws.Reproduce)
			again, next := run(ws.Reproduce)
			ref, fresh := run(core.ReproduceFresh)
			sameSearch(t, rec, fresh, rep, ref)
			sameSearch(t, next, fresh, again, ref)
			before := map[*cluster.Env]int{}
			for j, env := range rec.envs {
				before[env] = j
			}
			if _, ok := before[next.envs[0]]; !ok {
				t.Fatal("the second search's free run did not start in an environment the first gave back")
			}
			for i, env := range next.envs {
				if j, ok := before[env]; ok && rec.failed[j] {
					t.Fatalf("the second search's trial %d ran in the environment of the first's trial %d, which failed (%s)", i, j, class)
				}
			}
			if !rep.Reproduced || rep.InconclusiveRounds < 1 || len(rec.failed) < 2 {
				t.Fatalf("reproduced=%v, %d inconclusive rounds, %d failed trials: want a reproduction past a poisoned trial and its retry",
					rep.Reproduced, rep.InconclusiveRounds, len(rec.failed))
			}
			reuses := rec.reuses()
			if len(reuses) == 0 {
				t.Fatal("no environment was ever recycled: the test proves nothing")
			}
			for i, j := range reuses {
				if j == 0 {
					t.Fatalf("trial %d ran in the free run's environment", i)
				}
				if rec.failed[j] {
					t.Fatalf("trial %d ran in the environment of trial %d, which failed (%s)", i, j, class)
				}
			}
		})
	}
}

// TestCombinedLogRunsKeepTheirEnvironments: with RunsPerRound 3 a round's
// primary run and its extra runs are alive together through the learn step,
// so they run in separate environments; all of them go back when the round
// is booked, poisoned, and the next round runs in them. The reproducing
// round's go back too, whichever of its runs satisfied the oracle: f4's
// primary run, or f20's first extra run of round 2, whose environment the
// next search in the workspace builds a trial in.
func TestCombinedLogRunsKeepTheirEnvironments(t *testing.T) {
	for _, c := range []struct {
		id         string
		extraRepro bool // the reproducing run is an extra run
	}{{"f4", false}, {"f20", true}} {
		t.Run(c.id, func(t *testing.T) {
			tgt := target(t, c.id)
			base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, RunsPerRound: 3}

			// An oracle that keeps what it was shown, as none should: round
			// -> the results its calls saw.
			judged := map[int][]*cluster.Result{}
			rec := newEnvLog()
			wrapped := rec.watch(tgt)
			wrapped.Oracle.Check = func(r *cluster.Result) bool {
				judged[rec.round] = append(judged[rec.round], r)
				for _, old := range judged[rec.round-1] {
					if old.Env != nil || old.Entries != nil {
						t.Errorf("round %d: a result of booked round %d is not poisoned", rec.round, rec.round-1)
					}
				}
				return tgt.Oracle.Satisfied(r)
			}
			ws := new(core.Workspace)
			opts := base
			opts.Trace = rec
			rep := ws.Reproduce(wrapped, opts)
			fresh := newEnvLog()
			opts.Trace = fresh
			ref := core.ReproduceFresh(fresh.watch(tgt), opts)
			sameSearch(t, rec, fresh, rep, ref)
			if !rep.Reproduced {
				t.Fatalf("not reproduced in %d rounds", rep.Rounds)
			}
			if extra := rep.ScriptSeed-base.Seed >= 1<<33; extra != c.extraRepro {
				t.Fatalf("reproduced under seed %d: extra run %v, want %v", rep.ScriptSeed, extra, c.extraRepro)
			}
			full := 0
			for round, results := range judged {
				if len(results) == 3 {
					full++
				}
				inRound := map[*cluster.Env]bool{}
				for i, r := range rec.rounds {
					if r != round {
						continue
					}
					if inRound[rec.envs[i]] {
						t.Fatalf("round %d ran two of its trials in one environment", round)
					}
					inRound[rec.envs[i]] = true
				}
			}
			if full == 0 {
				t.Fatal("no round ran all three of its trials: the fixture does not exercise the combined logs")
			}
			reuses := rec.reuses()
			for i, round := range rec.rounds {
				if _, ok := reuses[i]; round > 1 && !ok {
					t.Fatalf("trial %d, of round %d, ran in an environment no earlier round gave back", i, round)
				}
			}
			if rep.Rounds < 2 {
				t.Fatal("the search ran one round: no round could run in another's environments")
			}
			next := newEnvLog()
			opts.Trace = next
			ws.Reproduce(next.watch(tgt), opts)
			if !slices.Contains(next.envs, rec.envs[len(rec.envs)-1]) {
				t.Fatal("the reproducing run's environment did not go back to the workspace")
			}
		})
	}
}

// TestWarmSearchBuildsNoEnvironment: every trial that ran cleanly gives its
// environment back, the reproducing round's included, so a second search in
// the workspace of a first runs every trial in an environment the first gave
// back — in occurrence and path addressing, through pair rounds, and with
// three runs a round.
func TestWarmSearchBuildsNoEnvironment(t *testing.T) {
	for _, c := range []struct {
		name, id string
		opts     core.Options
	}{
		{"occurrence", "f4", core.Options{}},
		{"path", "f23", core.Options{Addressing: core.AddrPath}},
		{"pair", "f30", core.Options{}},
		{"combined-logs", "f4", core.Options{RunsPerRound: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tgt := target(t, c.id)
			opts := c.opts
			opts.Seed, opts.MaxRounds = 1, 500
			ws := new(core.Workspace)
			first, second := newEnvLog(), newEnvLog()
			opts.Trace = first
			ws.Reproduce(first.watch(tgt), opts)
			opts.Trace = second
			rep := ws.Reproduce(second.watch(tgt), opts)
			if !rep.Reproduced {
				t.Fatalf("not reproduced in %d rounds", rep.Rounds)
			}
			gave := map[*cluster.Env]bool{}
			for _, env := range first.envs {
				gave[env] = true
			}
			for i, env := range second.envs {
				if !gave[env] {
					t.Fatalf("trial %d of the second search (round %d of %d) built an environment", i, second.rounds[i], rep.Rounds)
				}
			}
		})
	}
}

// TestConcurrentEnginesShareNoRecycledMemory: a workspace serves one search
// at a time. Searches running side by side on one shared Target — what
// daemon workers and the parallel evaluation harness do — draw on one pool
// of workspaces, so a later search builds its trials in the environments an
// earlier one gave back; but no environment ever serves two searches whose
// trials overlap in time, twins of one seed leave one trace, and -race has
// nothing to report.
func TestConcurrentEnginesShareNoRecycledMemory(t *testing.T) {
	tgt := target(t, "f9")
	const engines, concurrent = 8, 4
	var clock atomic.Int64 // one tick per trial, across all engines
	logs := make([]*envLog, engines)
	spans := make([][2]int64, engines) // an engine's first and last trial tick
	slots := make(chan struct{}, concurrent)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = newEnvLog()
		watched := logs[i].watch(tgt)
		timed := *watched
		timed.Workload = func(env *cluster.Env) {
			tick := clock.Add(1)
			if spans[i][0] == 0 {
				spans[i][0] = tick
			}
			spans[i][1] = tick
			watched.Workload(env)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			core.Reproduce(&timed, core.Options{Seed: 1 + int64(i%2), Trace: logs[i]})
		}()
	}
	wg.Wait()
	users := map[*cluster.Env][]int{} // environment -> the engines that ran trials in it
	for i, l := range logs {
		if len(l.reuses()) == 0 {
			t.Fatalf("engine %d recycled nothing in %d trials", i, len(l.envs))
		}
		seen := map[*cluster.Env]bool{}
		for _, env := range l.envs {
			if !seen[env] {
				seen[env] = true
				users[env] = append(users[env], i)
			}
		}
		if twin := logs[(i+2)%engines]; !bytes.Equal(l.buf.Bytes(), twin.buf.Bytes()) {
			t.Fatalf("engine %d and its same-seed twin left different traces", i)
		}
	}
	shared := 0
	for env, us := range users {
		for a := range us {
			for _, j := range us[a+1:] {
				i := us[a]
				shared++
				if spans[i][0] <= spans[j][1] && spans[j][0] <= spans[i][1] {
					t.Fatalf("engines %d (trials %d-%d) and %d (trials %d-%d) overlap and both ran trials in environment %p",
						i, spans[i][0], spans[i][1], j, spans[j][0], spans[j][1], env)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no environment served two engines: the searches did not share the pool, and the test proves nothing")
	}
}
