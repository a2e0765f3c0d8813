package core_test

import (
	"fmt"
	"testing"

	"anduril/internal/core"
	"anduril/internal/inject"
)

// TestPairScoreMemoEqualsRecompute: the temporal score stamped on every
// pair instance at enumeration is exactly the member-wise nearestObs sum,
// recomputed from the members the pair Instance itself names — in both
// addressing modes, since a path-addressed pair names its members by path.
func TestPairScoreMemoEqualsRecompute(t *testing.T) {
	for _, id := range pairIDs {
		for _, addr := range []core.Addressing{core.AddrOccurrence, core.AddrPath} {
			id, addr := id, addr
			t.Run(fmt.Sprintf("%s/%s", id, addr), func(t *testing.T) {
				p, err := core.Prepare(target(t, id), core.Options{Seed: 1, MaxRounds: 500, Addressing: addr})
				if err != nil {
					t.Fatal(err)
				}
				checked := 0
				p.PairScores(func(pair inject.Instance, memo, recomputed float64) {
					checked++
					if memo != recomputed {
						t.Errorf("%s#%d (%s): memoized score %v, recomputed %v",
							pair.Site, pair.Occurrence, pair.Path, memo, recomputed)
					}
				})
				if checked == 0 {
					t.Fatal("no pair instances enumerated")
				}
			})
		}
	}
}
