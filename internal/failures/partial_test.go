package failures

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
)

// TestPartialScenariosNeedPartialFault pins the property that makes
// f32–f34 partial-failure scenarios rather than restatements of the
// existing dataset: no clean all-or-nothing fault — any occurrence of
// any error-return site or environment pseudo-site — satisfies their
// oracles. Error returns, crashes, partitions and message drops only
// ever lose or defer state; they cannot leave the torn renames, torn
// records and duplicated appends these oracles pin.
func TestPartialScenariosNeedPartialFault(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"f32", "f33", "f34"} {
		s, _ := ByID(id)
		t.Run(id, func(t *testing.T) {
			// Enumerate singles with env faults enabled — but NOT partial
			// faults — so the sweep covers every clean fault the other
			// classes could inject while excluding the partial space itself.
			free := cluster.Execute(FailureSeed, nil, true, s.Workload, s.Horizon, cluster.With(inject.EnvFaults))
			singles := 0
			for site, n := range free.Counts {
				for occ := 1; occ <= n; occ++ {
					inst := inject.Instance{Site: site, Occurrence: occ}
					res := cluster.Execute(FailureSeed, inject.Exact(inst), false,
						s.Workload, s.Horizon, cluster.With(inject.EnvFaults))
					singles++
					if s.Oracle.Satisfied(res) {
						t.Fatalf("%s: clean fault %s#%d satisfies the partial oracle", id, site, occ)
					}
				}
			}
			if singles == 0 {
				t.Fatalf("%s: no clean-fault instances enumerated", id)
			}
		})
	}
}

// TestPartialGroundTruthOccurrences pins the empirically-derived ground
// truths so a drift in the target systems (which would silently move the
// reproducing instance) fails loudly instead.
func TestPartialGroundTruthOccurrences(t *testing.T) {
	wants := map[string]inject.Instance{
		"f32": {Site: inject.PseudoSiteID(inject.PartialTornRename, "dfs.namenode.rename-edits", ""), Occurrence: 1},
		"f33": {Site: inject.PseudoSiteID(inject.PartialShortWrite, "zk.sync.append-txn", ""), Occurrence: 3},
		"f34": {Site: inject.PseudoSiteID(inject.PartialDupDeliver, "mq-producer-1", "broker-a"), Occurrence: 1},
	}
	for id, want := range wants {
		s, _ := ByID(id)
		inst, err := s.GroundTruth(FailureSeed)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if inst != want {
			t.Errorf("%s: ground truth %v, want %v", id, inst, want)
		}
	}
}
