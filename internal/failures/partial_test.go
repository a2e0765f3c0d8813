package failures

import (
	"testing"

	"anduril/internal/inject"
)

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
