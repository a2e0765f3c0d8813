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

// TestPairCandidatesCostNoAllocation: a pair site can have millions of
// instances (f3 with the pair class: 748 476 candidate instances), so
// enumeration keeps each as a fixed-size record of member indices and
// renders a pair Instance only for a candidate that is armed. A one-round
// search — the free run, setup, one trial — then allocates a negligible
// number of objects per candidate instance; building every pair Instance
// at setup cost 5.6.
func TestPairCandidatesCostNoAllocation(t *testing.T) {
	tgt := target(t, "f3")
	opts := core.Options{Seed: 1, MaxRounds: 1, FaultClasses: []string{core.ClassSite, core.ClassPair}}
	var rep *core.Report
	allocs := testing.AllocsPerRun(1, func() { rep = core.Reproduce(tgt, opts) })
	if rep.CandidateInstances < 100000 {
		t.Fatalf("f3 with the pair class has %d candidate instances; the test needs a large pair space", rep.CandidateInstances)
	}
	if per := allocs / float64(rep.CandidateInstances); per >= 0.01 {
		t.Fatalf("%.0f allocations for %d candidate instances: %.3f per instance, want < 0.01", allocs, rep.CandidateInstances, per)
	}
}
