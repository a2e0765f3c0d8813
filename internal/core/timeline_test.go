package core_test

import (
	"maps"
	"slices"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// TestTimelineGroupsByReachIndex: setup groups the free run's reaches by the
// first-reach index each one carries. For the free run of every dataset
// failure in both addressing modes that grouping equals the grouping by site
// name kept here, site by site and in run order, and enumeration finds
// exactly the pseudo-sites the name grouping holds a candidate reach of.
func TestTimelineGroupsByReachIndex(t *testing.T) {
	pseudoSites := 0
	for _, sc := range failures.All() {
		tgt := target(t, sc.ID)
		for _, mode := range addressingModes {
			p, err := core.Prepare(tgt, core.Options{Seed: 1, MaxRounds: 500, Addressing: mode})
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string][]core.TimelineInstance{}
			candidates := map[string][]core.TimelineInstance{}
			for _, ev := range p.FreeRunReaches() {
				inst := core.TimelineInstance{Occ: ev.Occurrence, Addr: ev.Addr}
				byName[ev.Site] = append(byName[ev.Site], inst)
				if p.PseudoCandidate(ev.Site, ev.Amp) {
					candidates[ev.Site] = append(candidates[ev.Site], inst)
				}
			}
			reached, pseudo := p.Timeline()
			if !maps.EqualFunc(reached, byName, slices.Equal[[]core.TimelineInstance]) {
				t.Errorf("%s %v: the reach-index timeline groups %d sites, the name grouping %d, and they differ",
					sc.ID, mode, len(reached), len(byName))
			}
			if !maps.EqualFunc(pseudo, candidates, slices.Equal[[]core.TimelineInstance]) {
				t.Errorf("%s %v: enumerated pseudo-sites %v, the name grouping's %v",
					sc.ID, mode, sortedKeys(pseudo), sortedKeys(candidates))
			}
			pseudoSites += len(pseudo)
		}
	}
	if pseudoSites == 0 {
		t.Fatal("no free run enumerated a pseudo-site: the test proves nothing about them")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
