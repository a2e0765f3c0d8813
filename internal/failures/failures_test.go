package failures

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

// run is one trial of the scenario in a fresh environment; a trial error
// fails the test.
func run(t *testing.T, s *Scenario, seed int64, plan *inject.Plan, feats inject.Features) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(nil, nil, seed, plan, s.Workload, s.Horizon, feats)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rootLiteral renders a root instance as the Scenario.Root literal that
// states it.
func rootLiteral(inst inject.Instance) string {
	lit := func(m inject.Instance) string {
		return fmt.Sprintf("inject.Instance{Site: %q, Occurrence: %d}", m.Site, m.Occurrence)
	}
	if a, b, ok := inject.PairMembers(inst); ok {
		return fmt.Sprintf("inject.PairInstance(%s, %s)", lit(a), lit(b))
	}
	return lit(inst)
}

// TestScenarioInvariants checks, for every registered scenario, the three
// properties the paper's problem statement requires: the workload alone
// does not trigger the failure; injecting the ground-truth fault does; and
// the failure log generation round-trips — and that the records of all of
// them are keyed by their own messages. The stated Root is the instance
// FindRoot locates under FailureSeed, so a target edit that moves the root
// fails here.
func TestScenarioInvariants(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			// 1. No fault, no failure.
			free := run(t, s, FailureSeed, nil, s.features())
			if s.Oracle.Satisfied(free) {
				t.Fatalf("%s: oracle satisfied without any fault", s.ID)
			}
			// 2. Ground truth reproduces.
			inst, ok := s.FindRoot(s, free, FailureSeed)
			if !ok {
				t.Fatalf("%s: ground truth not found", s.ID)
			}
			if inst != s.Root {
				t.Fatalf("%s: FindRoot finds\n\tRoot: %s,\nthe row states\n\tRoot: %s,", s.ID, rootLiteral(inst), rootLiteral(s.Root))
			}
			res := run(t, s, FailureSeed, inject.Exact(inst), 0)
			if !s.Oracle.Satisfied(res) {
				t.Fatalf("%s: ground truth %v does not reproduce\n%s", s.ID, inst, res.RenderLog())
			}
			// 3. Failure log is non-trivial.
			flog, err := s.FailureLog()
			if err != nil {
				t.Fatal(err)
			}
			if len(flog) < 10 {
				t.Fatalf("%s: failure log has only %d entries", s.ID, len(flog))
			}
			// 4. Every record — emitted by the free run and the failure run,
			// parsed into the failure log — carries the id of its message.
			for name, entries := range map[string][]logging.Entry{"free run": free.Entries, "failure run": res.Entries, "failure log": flog} {
				for i, e := range entries {
					if e.ID() != logging.SanitizeID(e.Msg) {
						t.Fatalf("%s: %s record %d %q carries id %d, its message sanitizes to %d",
							s.ID, name, i, e.Msg, e.ID(), logging.SanitizeID(e.Msg))
					}
				}
			}
		})
	}
}

// TestGroundTruthStableAcrossSeeds verifies the ground truth can be located
// and reproduces under several seeds (the explorer runs rounds under
// different seeds than the failure log).
func TestGroundTruthStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				inst, ok := s.FindRoot(s, run(t, s, seed, nil, s.features()), seed)
				if !ok {
					t.Fatalf("seed %d: ground truth not found", seed)
				}
				res := run(t, s, seed, inject.Exact(inst), 0)
				if !s.Oracle.Satisfied(res) {
					t.Errorf("seed %d: %v does not reproduce", seed, inst)
				}
			}
		})
	}
}

func TestRegistryLookups(t *testing.T) {
	if len(All()) != 34 {
		t.Fatalf("only %d scenarios registered", len(All()))
	}
	// The paper's evaluation dataset is exactly the 22 site-only
	// scenarios; the env-, pair- and partial-searching ones are marked by
	// their FaultClasses.
	siteOnly, env, pair, partial := 0, 0, 0, 0
	for _, s := range All() {
		switch {
		case slices.Contains(s.FaultClasses, core.ClassEnv):
			env++
		case slices.Contains(s.FaultClasses, core.ClassPair):
			pair++
		case slices.Contains(s.FaultClasses, core.ClassPartial):
			partial++
		default:
			siteOnly++
		}
	}
	if siteOnly != 22 || env != 7 || pair != 2 || partial != 3 {
		t.Fatalf("dataset split: %d site-only, %d env-searching, %d pair-searching, %d partial-searching",
			siteOnly, env, pair, partial)
	}
	if len(SiteDataset()) != 22 {
		t.Fatalf("SiteDataset: %d scenarios", len(SiteDataset()))
	}
	if _, ok := ByID("f1"); !ok {
		t.Fatal("f1 missing")
	}
	if _, ok := ByID("ZK-2247"); !ok {
		t.Fatal("issue lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
	if len(BySystem("zk")) != 6 {
		t.Fatalf("zk scenarios: %d", len(BySystem("zk")))
	}
	if len(BySystem("dfs")) != 10 {
		t.Fatalf("dfs scenarios: %d", len(BySystem("dfs")))
	}
	if len(BySystem("dyn")) != 5 {
		t.Fatalf("dyn scenarios: %d", len(BySystem("dyn")))
	}
	// A scenario's source and horizon are its system's row, and no name
	// ByID matches is another scenario's (it matches an ID or an Issue).
	names := map[string]string{}
	for _, s := range All() {
		if want := []string{"internal/sys/" + s.System}; !slices.Equal(s.SrcDirs, want) {
			t.Errorf("%s: SrcDirs %v, want %v", s.ID, s.SrcDirs, want)
		}
		if s.Horizon != systems[s.System] || s.Horizon == 0 {
			t.Errorf("%s: Horizon %v, want %s's %v", s.ID, s.Horizon, s.System, systems[s.System])
		}
		for _, name := range []string{s.ID, s.Issue} {
			if other, dup := names[name]; dup {
				t.Errorf("%s: name %q is also %s's", s.ID, name, other)
			}
			names[name] = s.ID
		}
	}
}

func TestAnalyzeCached(t *testing.T) {
	f1, _ := ByID("f1")
	f2, _ := ByID("f2")
	a1, err := Analyze(f1.System)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Analyze(f2.System)
	if a1 != a2 {
		t.Fatal("analysis not cached: f1 and f2 share a system but not its analysis")
	}
	if _, err := Analyze("nope"); err == nil {
		t.Fatal("analysis of an unknown system succeeded")
	}
}

// TestExecuteDeterministicPerSeed re-runs the ground-truth injection for
// every scenario and demands byte-identical logs and event counts. Go
// randomizes map iteration order per range statement, so any simulation
// code path that lets map order pick between behaviors (which block a
// monitor repairs first, which lease expires first, snapshot serialization
// order) fails this within a handful of repeats — the bug class behind
// nondeterministic f8 failure logs.
func TestExecuteDeterministicPerSeed(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel() // cross-scenario concurrency must not leak either
			base := run(t, s, FailureSeed, inject.Exact(s.Root), 0)
			for rep := 0; rep < 3; rep++ {
				r := run(t, s, FailureSeed, inject.Exact(s.Root), 0)
				if r.Events != base.Events {
					t.Fatalf("repeat %d: %d events vs %d", rep, r.Events, base.Events)
				}
				if len(r.Entries) != len(base.Entries) {
					t.Fatalf("repeat %d: %d log entries vs %d", rep, len(r.Entries), len(base.Entries))
				}
				for j := range r.Entries {
					if r.Entries[j] != base.Entries[j] {
						t.Fatalf("repeat %d: log entry %d differs:\n got %+v\nwant %+v",
							rep, j, r.Entries[j], base.Entries[j])
					}
				}
			}
		})
	}
}

// needsItsClass is the proof a scenario of a later fault class is not a
// restatement of the earlier dataset: no single clean fault — any
// occurrence of any error-return site or environment pseudo-site the free
// run reaches — satisfies its oracle. The sweep runs with env faults
// enabled (so it covers every crash/partition/message pseudo-site) and
// partial faults off (the partial space is what f32–f34 are rooted in).
func needsItsClass(t *testing.T, ids ...string) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range ids {
		s, _ := ByID(id)
		t.Run(id, func(t *testing.T) {
			free := run(t, s, FailureSeed, nil, inject.EnvFaults)
			singles := 0
			for site, n := range free.Env.FI.Counts() {
				for occ := 1; occ <= n; occ++ {
					inst := inject.Instance{Site: site, Occurrence: occ}
					res := run(t, s, FailureSeed, inject.Exact(inst), inject.EnvFaults)
					singles++
					if s.Oracle.Satisfied(res) {
						t.Fatalf("%s: single clean fault %s#%d satisfies the oracle", id, site, occ)
					}
				}
			}
			if singles == 0 {
				t.Fatalf("%s: no single-fault instances enumerated", id)
			}
		})
	}
}

// Only the ground-truth pair reproduces f30/f31: no single fault does.
func TestPairScenariosNeedBothFaults(t *testing.T) { needsItsClass(t, "f30", "f31") }

// Error returns, crashes, partitions and message drops only ever lose or
// defer state; they cannot leave the torn renames, torn records and
// duplicated appends the f32–f34 oracles pin.
func TestPartialScenariosNeedPartialFault(t *testing.T) { needsItsClass(t, "f32", "f33", "f34") }

// TestBrokenScenarioIsATrialError: the dataset's own runs are watched, so a
// scenario whose workload livelocks (a zero-delay event that reschedules
// itself) or panics fails FailureLog — and BuildTarget — with a
// *cluster.TrialError of its class instead of hanging or crashing the
// process.
func TestBrokenScenarioIsATrialError(t *testing.T) {
	livelock := func(env *cluster.Env) {
		var spin func()
		spin = func() { env.Sim.Schedule("spin", 0, spin) }
		env.Sim.Schedule("spin", 0, spin)
	}
	crash := func(env *cluster.Env) {
		env.Sim.Go("worker-1", func() { panic("scenario bug") })
	}
	for class, w := range map[string]cluster.Workload{cluster.ClassEventBudget: livelock, cluster.ClassPanic: crash} {
		t.Run(class, func(t *testing.T) {
			s := &Scenario{ID: "broken-" + class, Workload: w, Horizon: des.Second}
			_, err := s.FailureLog()
			var te *cluster.TrialError
			if !errors.As(err, &te) || te.Class != class {
				t.Fatalf("FailureLog: %v, want a TrialError of class %q", err, class)
			}
		})
	}
}

// TestFailureLogIsOneRun: a scenario states its root, so producing its
// failure log runs the workload once — no free run, no ground-truth search
// — and yields the log BuildTarget hands the explorer.
func TestFailureLogIsOneRun(t *testing.T) {
	f20, _ := ByID("f20")
	runs := 0
	s := &Scenario{
		ID: f20.ID, System: f20.System, Horizon: f20.Horizon, Oracle: f20.Oracle,
		Root: f20.Root, FindRoot: f20.FindRoot, FaultClasses: f20.FaultClasses,
		Workload: func(env *cluster.Env) { runs++; f20.Workload(env) },
	}
	flog, err := s.FailureLog()
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("FailureLog ran the workload %d times, want 1", runs)
	}
	tgt, err := f20.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(flog, tgt.FailureLog) {
		t.Errorf("FailureLog: %d entries differ from BuildTarget's %d", len(flog), len(tgt.FailureLog))
	}
}
