package core

// White-box tests for the incremental priority index against the full
// recompute (export_test.go) on synthetic engines, driving bump sequences
// directly.

import (
	"fmt"
	"math/rand"
	"testing"

	"anduril/internal/logdiff"
)

// synthEngine fabricates an engine with nSites sites and nObs observables,
// deterministic pseudo-random reachability, bypassing the free run.
func synthEngine(nSites, nObs int, seed int64) *engine {
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
	for i := 0; i < nSites; i++ {
		id := fmt.Sprintf("site-%04d", i)
		d := map[string]int{}
		// Each site reaches a handful of observables at random distances.
		for n := rng.Intn(6); n >= 0; n-- {
			d[fmt.Sprintf("tmpl-%03d", rng.Intn(nObs))] = 1 + rng.Intn(12)
		}
		e.sites = append(e.sites, &siteState{
			id:        id,
			dists:     d,
			instances: []instance{{occ: 1, alignedPos: float64(rng.Intn(1000))}},
		})
	}
	e.siteIndex = make(map[string]*siteState, len(e.sites))
	for _, s := range e.sites {
		e.siteIndex[s.id] = s
	}
	return e
}

// TestIndexRankerMatchesNaive drives the index and the full recompute
// through an identical random bump sequence on clones of one synthetic
// engine and requires the identical ranking after every step.
func TestIndexRankerMatchesNaive(t *testing.T) {
	const nSites, nObs, steps = 120, 40, 50
	en := synthEngine(nSites, nObs, 7)
	ei := synthEngine(nSites, nObs, 7)
	index := &indexRanker{e: ei}
	rng := rand.New(rand.NewSource(99))

	check := func(step int) {
		a, b := en.fullRanking(), index.ranked()
		if len(a) != len(b) {
			t.Fatalf("step %d: ranking lengths %d vs %d", step, len(a), len(b))
		}
		for i := range a {
			if a[i].id != b[i].id || a[i].f != b[i].f || a[i].bestObs != b[i].bestObs {
				t.Fatalf("step %d, rank %d: naive (%s F=%v best=%d) vs indexed (%s F=%v best=%d)",
					step, i, a[i].id, a[i].f, a[i].bestObs, b[i].id, b[i].f, b[i].bestObs)
			}
		}
	}

	check(0)
	for step := 1; step <= steps; step++ {
		// Bump a random batch of observables on both engines, as one
		// feedback round would.
		for n := rng.Intn(5); n >= 0; n-- {
			k := rng.Intn(nObs)
			en.obs[k].priority++
			ei.obs[k].priority++
			index.observableBumped(k)
		}
		check(step)
	}
}

// The no-bump fast path must hand back the same ranking object without
// re-scoring.
func TestIndexRankerNoBumpStable(t *testing.T) {
	e := synthEngine(50, 10, 3)
	rk := &indexRanker{e: e}
	a := rk.ranked()
	b := rk.ranked()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d changed without any bump", i)
		}
	}
}
