package core

// Site priorities F_i = min_k (L_{i,k} + I_k) (§5.2.4) and the ranking
// over them. The paper's algorithm as literally written re-scores every site
// and fully re-sorts each round (computePriorities + rankedSites); the
// search runs on indexRanker, the incremental priority index, which builds
// that ranking once and then tracks which sites are dirty (their F_i may
// have changed because a feedback update bumped an observable they reach),
// re-scoring only those and merging them back into the maintained order.
//
// Both produce the identical total order — (F_i, site id) ascending, with
// unique ids making the order strict — so traces, root-rank trajectories
// and golden files are byte-identical between them; the equivalence tests
// hold the index to the full recompute through export_test.go.

import (
	"math"
	"sort"
)

// computePriorities evaluates F_i = min_k (L_{i,k} + I_k) for every site
// (§5.2.4), with the feedback term and the aggregation the strategy row's.
func (e *engine) computePriorities() {
	for _, s := range e.sites {
		e.rescoreSite(s)
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
		l := e.spatial(s.members[0], o)
		if l2 := e.spatial(s.members[1], o); l2 < l {
			l = l2
		}
		return l
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

// rescoreSite recomputes one site's F_i and best observable from scratch.
func (e *engine) rescoreSite(s *siteState) {
	s.f = math.Inf(1)
	s.bestObs = -1
	s.bestVal = math.Inf(1)
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
			if val < s.bestVal {
				s.bestObs = k
				s.bestVal = val
			}
			continue
		}
		if val < s.f {
			s.f = val
			s.bestObs = k
		}
	}
}

// siteLess is the ranking order: F ascending, site id as tiebreak. Site
// ids are unique, so this is a strict total order — any correct sort or
// merge yields one identical ranking.
func siteLess(a, b *siteState) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.id < b.id
}

// siteSorter sorts sites by (F, id). The concrete sort.Interface avoids
// the closure and reflection-based swapper sort.Slice allocates per call;
// the order is a strict total one, so any sorting algorithm yields the
// identical ranking.
type siteSorter []*siteState

func (s siteSorter) Len() int           { return len(s) }
func (s siteSorter) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s siteSorter) Less(i, j int) bool { return siteLess(s[i], s[j]) }

// rankedSites returns sites ordered by F ascending (name as tiebreak),
// reusing the engine's ranking buffer. The result is valid until the next
// rankedSites call on the same engine.
func (e *engine) rankedSites() []*siteState {
	if cap(e.rankedBuf) < len(e.sites) {
		e.rankedBuf = make([]*siteState, len(e.sites))
	}
	out := e.rankedBuf[:len(e.sites)]
	copy(out, e.sites)
	sort.Sort(siteSorter(out))
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

// indexRanker is the incremental priority index. It builds the full
// ranking once, plus a reverse index observable -> sites reaching it;
// afterwards each feedback bump marks only the reaching sites dirty, and
// the next ranked() call re-scores the dirty set and merges it back into
// the sorted order: O(D log D + N) per updated round instead of the full
// recompute's O(N·K·T + N log N), and O(1) for rounds with no feedback
// change. ranked() returns the sites in (F, id) order; the slice is
// read-only and valid until the next observableBumped/ranked call.
type indexRanker struct {
	e *engine

	obsSites [][]*siteState // k -> sites with a finite L_{i,k}
	order    []*siteState   // current ranking, (F, id) ascending
	dirty    []*siteState   // sites whose F may have changed
	dirtySet map[*siteState]bool
	built    bool

	// keepBuf and spare are reused across updates: keepBuf collects the
	// clean prefix of the old order, spare receives the merge, and the old
	// order's backing array becomes the next update's spare. Each round's
	// re-rank therefore allocates nothing once the buffers reach steady
	// size.
	keepBuf []*siteState
	spare   []*siteState
}

func (r *indexRanker) build() {
	e := r.e
	e.computePriorities()
	// Copy out of the engine's shared ranking buffer: order is long-lived.
	r.order = append([]*siteState(nil), e.rankedSites()...)
	r.obsSites = make([][]*siteState, len(e.obs))
	for _, s := range e.sites {
		for k, o := range e.obs {
			if !math.IsInf(e.spatial(s, o), 1) {
				r.obsSites[k] = append(r.obsSites[k], s)
			}
		}
	}
	r.dirty, r.dirtySet = r.dirty[:0], make(map[*siteState]bool)
	r.built = true
}

// observableBumped tells the index that observable k's priority I_k
// changed, so sites reaching k must be re-scored before the next ranking.
func (r *indexRanker) observableBumped(k int) {
	if !r.built {
		return // first ranked() builds everything from current priorities
	}
	for _, s := range r.obsSites[k] {
		if !r.dirtySet[s] {
			r.dirtySet[s] = true
			r.dirty = append(r.dirty, s)
		}
	}
}

func (r *indexRanker) ranked() []*siteState {
	if !r.built || r.e.recomputeRanking {
		r.build()
		return r.order
	}
	if len(r.dirty) == 0 {
		return r.order
	}
	for _, s := range r.dirty {
		r.e.rescoreSite(s)
	}
	keep := r.keepBuf[:0]
	for _, s := range r.order {
		if !r.dirtySet[s] {
			keep = append(keep, s)
		}
	}
	r.keepBuf = keep
	sort.Sort(siteSorter(r.dirty))
	merged := mergeRanked(r.spare[:0], keep, r.dirty)
	r.spare = r.order[:0]
	r.order = merged
	r.dirty = r.dirty[:0]
	for s := range r.dirtySet {
		delete(r.dirtySet, s)
	}
	return r.order
}

// mergeRanked merges two (F, id)-sorted site lists into dst.
func mergeRanked(dst, a, b []*siteState) []*siteState {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if siteLess(a[i], b[j]) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
