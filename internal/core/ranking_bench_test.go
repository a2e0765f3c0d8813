package core

// Microbenchmarks for the ranking layer at the largest shape a search over
// the failure dataset ranks, in either addressing mode: 50 candidate sites
// (f25), 24 observables (f31), 15 of the sites pairs.

import (
	"fmt"
	"math/rand"
	"testing"

	"anduril/internal/logdiff"
)

const (
	benchSites = 50
	benchObs   = 24
	benchPairs = 15
)

// synthEngine fabricates an engine with nSites sites, the last nPairs of
// them pairs of earlier sites, and nObs observables, with deterministic
// pseudo-random reachability, bypassing the free run.
func synthEngine(nSites, nPairs, nObs int, seed int64) *engine {
	rng := rand.New(rand.NewSource(seed))
	e := newEngine(&Target{ID: "synth"}, Options{}.withDefaults(), new(workspace))
	e.strategy, _ = strategyByName(e.o.Strategy)
	for k := 0; k < nObs; k++ {
		tmpl := fmt.Sprintf("tmpl-%03d", k)
		e.obs = append(e.obs, &observable{
			key:       logdiff.Key{Thread: "t", Msg: tmpl},
			positions: []int{rng.Intn(1000)},
			templates: []string{tmpl},
		})
	}
	singles := nSites - nPairs
	for i := 0; i < nSites; i++ {
		s := &siteState{
			id:        fmt.Sprintf("site-%04d", i),
			instances: []instance{{occ: 1, alignedPos: float64(rng.Intn(1000))}},
		}
		if i < singles {
			// Each site reaches a handful of observables at random distances.
			s.dists = map[string]int{}
			for n := rng.Intn(6); n >= 0; n-- {
				s.dists[fmt.Sprintf("tmpl-%03d", rng.Intn(nObs))] = 1 + rng.Intn(12)
			}
		} else {
			s.class = pairClass
			s.members = [2]*siteState{e.sites[rng.Intn(singles)], e.sites[rng.Intn(singles)]}
		}
		e.sites = append(e.sites, s)
	}
	return e
}

// BenchmarkComputePriorities measures one F_i evaluation over every site.
func BenchmarkComputePriorities(b *testing.B) {
	e := synthEngine(benchSites, benchPairs, benchObs, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.computePriorities()
	}
}

// BenchmarkRankedSites measures one feedback round's ranking: a few
// observables bumped, then every site re-scored and re-sorted.
func BenchmarkRankedSites(b *testing.B) {
	e := synthEngine(benchSites, benchPairs, benchObs, 11)
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 4; n++ {
			e.obs[rng.Intn(benchObs)].priority++
		}
		e.rankedSites()
	}
}
