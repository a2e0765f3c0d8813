package failures

import (
	"testing"

	"anduril/internal/inject"
)

// TestPairGroundTruthMembers: f30's stated root is a pair of exactly these
// members (TestScenarioInvariants holds the root to what FindRoot finds).
func TestPairGroundTruthMembers(t *testing.T) {
	wants := map[string][2]inject.Instance{
		"f30": {
			{Site: "dyn.handoff.replay-hint", Occurrence: 18},
			{Site: "dyn.store.persist-record", Occurrence: 30},
		},
	}
	for id, want := range wants {
		s, _ := ByID(id)
		a, b, ok := inject.PairMembers(s.Root)
		if !ok {
			t.Fatalf("%s: root %v is not a pair", id, s.Root)
		}
		if a != want[0] || b != want[1] {
			t.Errorf("%s: root members (%v, %v), want (%v, %v)", id, a, b, want[0], want[1])
		}
	}
}

// TestPairSelfPairDistinctMembers checks f31's root is a true self-pair:
// same site, two distinct occurrences.
func TestPairSelfPairDistinctMembers(t *testing.T) {
	s, _ := ByID("f31")
	a, b, ok := inject.PairMembers(s.Root)
	if !ok {
		t.Fatalf("root %v is not a pair", s.Root)
	}
	if a.Site != b.Site || a.Site != "dfs.datanode.connect-downstream" {
		t.Fatalf("members (%s, %s), want a connect-downstream self-pair", a.Site, b.Site)
	}
	if a.Occurrence == b.Occurrence {
		t.Fatalf("self-pair members share occurrence %d", a.Occurrence)
	}
}
