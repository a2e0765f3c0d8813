package failures

import (
	"testing"

	"anduril/internal/inject"
)

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
