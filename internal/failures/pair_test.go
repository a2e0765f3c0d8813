package failures

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
)

// TestPairScenariosNeedBothFaults pins the property that makes f30/f31
// combined-fault scenarios rather than redundant restatements of the
// single-fault dataset: no single fault — any occurrence of any site,
// including every environment pseudo-site — satisfies their oracles.
// Only the ground-truth pair does.
func TestPairScenariosNeedBothFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"f30", "f31"} {
		s, _ := ByID(id)
		t.Run(id, func(t *testing.T) {
			// Enumerate singles with env faults enabled so the sweep also
			// covers every crash/partition/message pseudo-site, even though
			// the scenarios themselves search the pair class only.
			free := cluster.Execute(FailureSeed, nil, true, s.Workload, s.Horizon, cluster.With(inject.EnvFaults))
			singles := 0
			for site, n := range free.Counts {
				for occ := 1; occ <= n; occ++ {
					inst := inject.Instance{Site: site, Occurrence: occ}
					res := cluster.Execute(FailureSeed, inject.Exact(inst), false,
						s.Workload, s.Horizon, cluster.With(inject.EnvFaults))
					singles++
					if s.Oracle.Satisfied(res) {
						t.Fatalf("%s: single fault %s#%d satisfies the pair oracle", id, site, occ)
					}
				}
			}
			if singles == 0 {
				t.Fatalf("%s: no single-fault instances enumerated", id)
			}
		})
	}
}

// TestPairGroundTruthMembers pins the empirically-derived ground truth
// so a drift in the target systems (which would silently move the
// reproducing pair) fails loudly instead.
func TestPairGroundTruthMembers(t *testing.T) {
	wants := map[string][2]inject.Instance{
		"f30": {
			{Site: "dyn.handoff.replay-hint", Occurrence: 18},
			{Site: "dyn.store.persist-record", Occurrence: 30},
		},
	}
	for id, want := range wants {
		s, _ := ByID(id)
		inst, err := s.GroundTruth(FailureSeed)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		a, b, ok := inject.PairMembers(inst)
		if !ok {
			t.Fatalf("%s: ground truth %v is not a pair", id, inst)
		}
		if a != want[0] || b != want[1] {
			t.Errorf("%s: ground-truth members (%v, %v), want (%v, %v)", id, a, b, want[0], want[1])
		}
	}
}

// TestPairSelfPairDistinctMembers checks f31's ground truth is a true
// self-pair: same site, two distinct occurrences.
func TestPairSelfPairDistinctMembers(t *testing.T) {
	s, _ := ByID("f31")
	inst, err := s.GroundTruth(FailureSeed)
	if err != nil {
		t.Fatal(err)
	}
	a, b, ok := inject.PairMembers(inst)
	if !ok {
		t.Fatalf("ground truth %v is not a pair", inst)
	}
	if a.Site != b.Site || a.Site != "dfs.datanode.connect-downstream" {
		t.Fatalf("members (%s, %s), want a connect-downstream self-pair", a.Site, b.Site)
	}
	if a.Occurrence == b.Occurrence {
		t.Fatalf("self-pair members share occurrence %d", a.Occurrence)
	}
}
