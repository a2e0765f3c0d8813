package failures

import (
	"testing"

	"anduril/internal/inject"
)

// TestPartialGroundTruthOccurrences: the partial scenarios' stated roots
// are these instances (TestScenarioInvariants holds each root to what
// FindRoot finds).
func TestPartialGroundTruthOccurrences(t *testing.T) {
	wants := map[string]inject.Instance{
		"f32": {Site: inject.PseudoSiteID(inject.PartialTornRename, "dfs.namenode.rename-edits", ""), Occurrence: 1},
		"f33": {Site: inject.PseudoSiteID(inject.PartialShortWrite, "zk.sync.append-txn", ""), Occurrence: 3},
		"f34": {Site: inject.PseudoSiteID(inject.PartialDupDeliver, "mq-producer-1", "broker-a"), Occurrence: 1},
	}
	for id, want := range wants {
		s, _ := ByID(id)
		if s.Root != want {
			t.Errorf("%s: root %v, want %v", id, s.Root, want)
		}
	}
}
