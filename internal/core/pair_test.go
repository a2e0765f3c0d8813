package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
)

// TestPairScoreMemoEqualsRecompute: the temporal score the scan reads for
// every pair instance, the sum of its members' distances memoized at
// enumeration, is exactly the member-wise nearest-observable sum,
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
				p.PairScores(func(pair inject.Instance, scanned, recomputed float64) {
					checked++
					if scanned != recomputed {
						t.Errorf("%s#%d (%s): scanned score %v, recomputed %v",
							pair.Site, pair.Occurrence, pair.Path, scanned, recomputed)
					}
				})
				if checked == 0 {
					t.Fatal("no pair instances enumerated")
				}
			})
		}
	}
}

// TestPairScanMatchesStoredPairs: a pair site's instances, scanned where
// selection reads them, select what they selected when enumeration stored
// every one — the same window, by site, occurrence and path — for every
// failure of the dataset with all four classes, in both addressing modes
// and under every priority-driven row. Before each of a row's two windows
// random occurrences are marked tried, the first three of a site's among
// them so the limit-3 rows see gaps, and before the second the first
// window's picks too.
func TestPairScanMatchesStoredPairs(t *testing.T) {
	classes := []string{core.ClassSite, core.ClassEnv, core.ClassPartial, core.ClassPair}
	for _, sc := range failures.All() {
		for _, addr := range []core.Addressing{core.AddrOccurrence, core.AddrPath} {
			t.Run(fmt.Sprintf("%s/%s", sc.ID, addr), func(t *testing.T) {
				t.Parallel()
				tgt := target(t, sc.ID)
				rng := rand.New(rand.NewSource(int64(len(sc.ID)) + int64(len(addr))))
				mark := func(size int) []int {
					var occs []int
					for n := rng.Intn(3); n > 0; n-- {
						occs = append(occs, 1+rng.Intn(min(size, 4)))
					}
					for n := rng.Intn(4); n > 0; n-- {
						occs = append(occs, 1+rng.Intn(size))
					}
					return occs
				}
				for n, row := range core.PriorityRows() {
					p, err := core.Prepare(tgt, core.Options{
						Seed: 1, MaxRounds: 500, Strategy: row, Addressing: addr, FaultClasses: classes,
					})
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						p.PairSizes(func(site string, size, stored int) {
							if size != stored {
								t.Errorf("%s has %d instances, %d stored", site, size, stored)
							}
						})
					}
					p.ExhaustSingleFaults()
					for round := range 2 {
						p.MarkTried(mark)
						got, want := p.FillWindow(1<<20), p.FillWindowStored(1<<20)
						if len(got) != len(want) {
							t.Fatalf("%s round %d: window of %d candidates, %d stored", row, round, len(got), len(want))
						}
						for i := range got {
							if g, w := got[i], want[i]; g.Site != w.Site || g.Occurrence != w.Occurrence || g.Path != w.Path {
								t.Fatalf("%s round %d, candidate %d: %s#%d (%s), stored %s#%d (%s)",
									row, round, i, g.Site, g.Occurrence, g.Path, w.Site, w.Occurrence, w.Path)
							}
						}
					}
				}
			})
		}
	}
}

// TestPairCandidatesCostNoAllocation: a pair site can have millions of
// instances (f3 with all four classes: 8 982 602 candidate instances, f23:
// 10 446 019), so it keeps only its two members and selection scans their
// product where it reads it; a pair Instance is rendered only for a
// candidate that is armed. A one-round search — the free run, setup, one
// trial — then allocates a negligible number of objects per candidate
// instance and a few megabytes in all: storing every pair instance as a
// record of member indices took 433 MB for f3 and 504 MB for f23, building
// every pair Instance 5.6 allocations per instance.
func TestPairCandidatesCostNoAllocation(t *testing.T) {
	const maxBytes = 20 << 20
	for _, c := range []struct {
		id        string
		instances int
	}{{"f3", 8982602}, {"f23", 10446019}} {
		tgt := target(t, c.id)
		opts := core.Options{Seed: 1, MaxRounds: 1, FaultClasses: []string{core.ClassSite, core.ClassEnv, core.ClassPartial, core.ClassPair}}
		core.Reproduce(tgt, opts) // a warm-up: the workspace pool fills
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := core.Reproduce(tgt, opts)
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d allocations, %d bytes", c.id, allocs, bytes)
		if rep.CandidateInstances != c.instances {
			t.Fatalf("%s with all four classes has %d candidate instances, want %d", c.id, rep.CandidateInstances, c.instances)
		}
		if per := float64(allocs) / float64(rep.CandidateInstances); per >= 0.01 {
			t.Errorf("%s: %d allocations for %d candidate instances: %.3f per instance, want < 0.01", c.id, allocs, rep.CandidateInstances, per)
		}
		if bytes > maxBytes {
			t.Errorf("%s: a one-round search allocates %d bytes, want at most %d", c.id, bytes, maxBytes)
		}
	}
}
