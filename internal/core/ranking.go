package core

// Site priorities F_i = min_k (L_{i,k} + I_k) (§5.2.4) and the ranking
// over them, as the paper's algorithm is written: every ranking re-scores
// every site and fully re-sorts (rankedSites). The order — (F_i, site id) ascending — is strict and total because site ids
// are unique, so any correct sort yields one identical ranking.

import (
	"cmp"
	"math"
	"slices"
)

// computePriorities evaluates F_i = min_k (L_{i,k} + I_k) for every site
// (§5.2.4), with the feedback term and the aggregation the strategy row's.
func (e *engine) computePriorities() {
	for _, s := range e.sites {
		e.scoreSite(s)
	}
}

// spatial returns L_{i,k}, the spatial distance from site s to observable
// o (+Inf when s does not reach o), in the one shape every class scores
// through, so feedback adjustments flow into every class unchanged: F =
// min_k (L + I_k). A graph-scored site takes the closest causal-graph
// template distance. A pseudo-site's synthetic distance stands in for
// every L_{i,k}, except that an observable equal to the site's own marker
// is a near-direct hit. A pair reaches an observable through whichever
// member is closer, so a bump on an observable either member reaches
// flows into the pair's priority exactly as it does into the member's.
func (e *engine) spatial(s *siteState, o *observable) float64 {
	switch {
	case s.class == pairClass:
		return min(e.spatial(s.members[0], o), e.spatial(s.members[1], o))
	case s.synth != 0:
		if s.marker != "" && o.key.Msg == s.marker {
			return distMatched
		}
		return s.synth
	}
	l := math.Inf(1)
	for _, tmpl := range o.templates {
		if d, ok := s.dists[tmpl]; ok && float64(d) < l {
			l = float64(d)
		}
	}
	return l
}

// scoreSite computes one site's F_i and best observable.
func (e *engine) scoreSite(s *siteState) {
	s.f = math.Inf(1)
	s.bestObs = -1
	bestVal := math.Inf(1) // sum-aggregation ablation: bestObs's partial priority
	for k, o := range e.obs {
		l := e.spatial(s, o)
		if math.IsInf(l, 1) {
			continue
		}
		val := l
		if e.strategy.spec.useFeedback {
			val += float64(o.priority)
		}
		if e.strategy.spec.sumAggregation {
			// Ablation: sum of partial priorities instead of min. The
			// best observable is still the closest one.
			if math.IsInf(s.f, 1) {
				s.f = 0
			}
			s.f += val
			if val < bestVal {
				s.bestObs = k
				bestVal = val
			}
			continue
		}
		if val < s.f {
			s.f = val
			s.bestObs = k
		}
	}
}

// compareSites is the ranking order: F ascending, site id as tiebreak.
func compareSites(a, b *siteState) int {
	if c := cmp.Compare(a.f, b.f); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// rankedSites scores every site and returns the sites in ranking order,
// reusing the engine's ranking buffer. The result is valid until the next
// rankedSites call on the same engine.
func (e *engine) rankedSites() []*siteState {
	e.computePriorities()
	if cap(e.rankedBuf) < len(e.sites) {
		e.rankedBuf = make([]*siteState, len(e.sites))
	}
	out := e.rankedBuf[:len(e.sites)]
	copy(out, e.sites)
	slices.SortFunc(out, compareSites)
	return out
}

// rootRank finds the 1-based rank of the ground-truth site, for Figure 6.
func (e *engine) rootRank(ranked []*siteState) int {
	if e.root == nil {
		return 0
	}
	for i, s := range ranked {
		if s == e.root {
			return i + 1
		}
	}
	return 0
}
