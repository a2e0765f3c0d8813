package failures

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

// TestScenarioInvariants checks, for every registered scenario, the three
// properties the paper's problem statement requires: the workload alone
// does not trigger the failure; injecting the ground-truth fault does; and
// the failure log generation round-trips — and that the records of all of
// them are keyed by their own messages.
func TestScenarioInvariants(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			// 1. No fault, no failure.
			free := cluster.Execute(FailureSeed, nil, true, s.Workload, s.Horizon, s.execOpt())
			if s.Oracle.Satisfied(free) {
				t.Fatalf("%s: oracle satisfied without any fault", s.ID)
			}
			// 2. Ground truth reproduces.
			inst, ok := s.FindRoot(free, FailureSeed)
			if !ok {
				t.Fatalf("%s: ground truth not found", s.ID)
			}
			if inst.Site != s.RootSite {
				t.Fatalf("%s: ground truth site %s != declared %s", s.ID, inst.Site, s.RootSite)
			}
			res := cluster.Execute(FailureSeed, inject.Exact(inst), false, s.Workload, s.Horizon)
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
				free := cluster.Execute(seed, nil, true, s.Workload, s.Horizon, s.execOpt())
				inst, ok := s.FindRoot(free, seed)
				if !ok {
					t.Fatalf("seed %d: ground truth not found", seed)
				}
				res := cluster.Execute(seed, inject.Exact(inst), false, s.Workload, s.Horizon)
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
		case s.Searches(core.ClassEnv):
			env++
		case s.Searches(core.ClassPair):
			pair++
		case s.Searches(core.ClassPartial):
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
}

func TestAnalyzeCached(t *testing.T) {
	s, _ := ByID("f1")
	a1, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := s.Analyze()
	if a1 != a2 {
		t.Fatal("analysis not cached")
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
			free := cluster.Execute(FailureSeed, nil, true, s.Workload, s.Horizon, s.execOpt())
			inst, ok := s.FindRoot(free, FailureSeed)
			if !ok {
				t.Fatalf("ground truth not found")
			}
			base := cluster.Execute(FailureSeed, inject.Exact(inst), false, s.Workload, s.Horizon)
			for rep := 0; rep < 3; rep++ {
				r := cluster.Execute(FailureSeed, inject.Exact(inst), false, s.Workload, s.Horizon)
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
			free := cluster.Execute(FailureSeed, nil, true, s.Workload, s.Horizon, cluster.With(inject.EnvFaults))
			singles := 0
			for site, n := range free.Counts {
				for occ := 1; occ <= n; occ++ {
					inst := inject.Instance{Site: site, Occurrence: occ}
					res := cluster.Execute(FailureSeed, inject.Exact(inst), false,
						s.Workload, s.Horizon, cluster.With(inject.EnvFaults))
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
