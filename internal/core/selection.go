package core

// Fault-instance selection (§5.2.3-§5.2.5): temporal distances, per-site
// best-untried choice, the multiply-feedback pair ranking, and the
// flexible-window growth rule.

import (
	"cmp"
	"math"
	"slices"

	"anduril/internal/inject"
)

// temporalDistance computes T_{i,j,k} for an instance against the site's
// chosen observable: the number of log messages between the instance's
// aligned position and the observable on the failure timeline (§5.2.3).
//
// Pair instances are scored member-wise instead: each member contributes
// its own distance to whichever relevant observable is nearest to IT, and
// the pair's T is the sum (pairSite computed it at enumeration). Scoring
// only the combined position (the later member) would leave the earlier
// fault unconstrained — hundreds of combinations tie and the sweep
// degenerates to enumeration order — whereas both faults of a real
// combined failure land near evidence of their own effect.
func (e *engine) temporalDistance(s *siteState, inst instance) float64 {
	if s.bestObs < 0 {
		return inst.alignedPos
	}
	if s.class == pairClass {
		return inst.pairT
	}
	best := math.Inf(1)
	for _, p := range e.obs[s.bestObs].positions {
		d := math.Abs(inst.alignedPos - float64(p))
		if d < best {
			best = d
		}
	}
	return best
}

// nearestObs is the distance from an aligned position to the closest
// relevant observable on the failure timeline, over ALL observables: pair
// members routinely explain different log lines, so clamping both to the
// site's single chosen observable would mis-rank every cross pair.
func (e *engine) nearestObs(pos float64) float64 {
	best := math.Inf(1)
	for _, o := range e.obs {
		for _, p := range o.positions {
			d := math.Abs(pos - float64(p))
			if d < best {
				best = d
			}
		}
	}
	return best
}

// pickMemo is a site's last bestUntried answer with everything the answer
// read that can change between rounds: how many instances are tried (the
// set only grows, so an equal size is an equal set), the best observable
// the temporal score measures from, and the selection parameters.
// Instances, observable positions and pair scores are fixed at setup.
type pickMemo struct {
	valid    bool
	tried    int
	bestObs  int
	limit    int
	temporal bool
	inst     instance
	found    bool
}

// bestUntried returns the site's highest-priority untried instance: the
// memoized answer while none of its inputs has moved, else a fresh scan.
func (e *engine) bestUntried(s *siteState, useTemporal bool, limit int) (instance, bool) {
	m := &s.pick
	if !m.valid || m.tried != s.tried.Len() || m.bestObs != s.bestObs || m.limit != limit || m.temporal != useTemporal {
		inst, found := e.scanUntried(s, useTemporal, limit)
		*m = pickMemo{valid: true, tried: s.tried.Len(), bestObs: s.bestObs, limit: limit, temporal: useTemporal, inst: inst, found: found}
	}
	if e.checkPick != nil {
		e.checkPick(s, useTemporal, limit)
	}
	return m.inst, m.found
}

// scanUntried is bestUntried computed from scratch.
func (e *engine) scanUntried(s *siteState, useTemporal bool, limit int) (instance, bool) {
	bestScore := math.Inf(1)
	var best instance
	found := false
	for i, inst := range s.instances {
		if limit > 0 && i >= limit {
			break
		}
		if s.tried.Has(inst.occ) {
			continue
		}
		score := float64(inst.occ)
		if useTemporal {
			score = e.temporalDistance(s, inst)
		}
		if score < bestScore {
			bestScore = score
			best = inst
			found = true
		}
	}
	return best, found
}

// candidateFor renders a selected instance as the plan-facing candidate:
// a pair site's instance as the pair Instance (site, occurrence AND the
// member references its two member instances render as), everything else a
// (site, occurrence) pair plus, under path addressing, the canonical path
// and the hash that keys it.
func (e *engine) candidateFor(s *siteState, inst instance) inject.Instance {
	if s.class == pairClass {
		sa, sb := s.members[0], s.members[1]
		a, b := sa.instances[inst.pair[0]], sb.instances[inst.pair[1]]
		pi := inject.PairInstance(
			inject.Instance{Site: sa.id, Occurrence: a.occ, Path: e.pathOf(sa, a)},
			inject.Instance{Site: sb.id, Occurrence: b.occ, Path: e.pathOf(sb, b)},
		)
		pi.Occurrence = inst.occ
		return pi
	}
	c := inject.Instance{Site: s.id, Occurrence: inst.occ, Path: e.pathOf(s, inst)}
	return c.Keyed(inst.addr.Hash)
}

// fillWindow selects the round's candidate window from the ranked
// sites: the best untried instance of each site, in ranking order,
// until the window is full. Selection runs one fault class at a time in
// table order (classes.go) — error-return sites first, and each later
// class only when no untried instance of any earlier class can be
// selected at all — so enabling a wider class never changes which
// instances the narrower search injects: each class runs to exhaustion
// in its exact original order before the next space opens.
func (e *engine) fillWindow(ranked []*siteState, window int, useTemporal bool, limit int) []inject.Instance {
	candidates := e.candBuf[:0]
	for c := classID(0); c < numClasses && len(candidates) == 0; c++ {
		for _, s := range ranked {
			if len(candidates) >= window {
				break
			}
			if s.class != c {
				continue
			}
			if inst, ok := e.bestUntried(s, useTemporal, limit); ok {
				candidates = append(candidates, e.candidateFor(s, inst))
			}
		}
	}
	e.candBuf = candidates
	return candidates
}

// multiplyCandidates ranks all untried (site, instance) pairs by the
// product (F_i+1) x (T_{i,j}+1) — the §8.3 "multiply feedback" variant that
// replaces the two-level selection.
func (e *engine) multiplyCandidates(ranked []*siteState, window int) []inject.Instance {
	pairs := e.pairBuf[:0]
	for _, s := range ranked {
		if math.IsInf(s.f, 1) {
			continue
		}
		if s.class == pairClass {
			// The multiply ablation ranks single-fault instances only.
			continue
		}
		for _, inst := range s.instances {
			if s.tried.Has(inst.occ) {
				continue
			}
			t := e.temporalDistance(s, inst)
			pairs = append(pairs, scoredPair{site: s, inst: inst, score: (s.f + 1) * (t + 1)})
		}
	}
	e.pairBuf = pairs
	slices.SortFunc(pairs, comparePairs)
	if len(pairs) > window {
		pairs = pairs[:window]
	}
	out := e.candBuf[:0]
	for _, p := range pairs {
		out = append(out, e.candidateFor(p.site, p.inst))
	}
	e.candBuf = out
	return out
}

// scoredPair is a (site, instance) candidate with its multiply-feedback
// score; only the window's worth that survives the sort is rendered as a
// plan-facing candidate.
type scoredPair struct {
	site  *siteState
	inst  instance
	score float64
}

// comparePairs orders pairs by (score, site id, occurrence) — strict and
// total, since (site, occurrence) is unique.
func comparePairs(a, b scoredPair) int {
	if c := cmp.Compare(a.score, b.score); c != 0 {
		return c
	}
	if c := cmp.Compare(a.site.id, b.site.id); c != 0 {
		return c
	}
	return cmp.Compare(a.inst.occ, b.inst.occ)
}

// growWindow doubles the flexible window (§5.2.5), clamped to the total
// candidate-instance count: a window wider than the whole fault space
// selects nothing extra, and unclamped doubling overflows int after ~62
// consecutive no-injection rounds — the window goes non-positive, the
// candidate loop selects nothing, and the search falsely reports the
// fault space exhausted.
func (e *engine) growWindow(window int) int {
	if e.strategy.spec.fixedWindow {
		return window
	}
	max := e.report.CandidateInstances
	// While untried site-class instances remain, the window only ever
	// holds site candidates (see fillWindow), so it clamps to the
	// site-class count — with env enumeration enabled this keeps the
	// growth sequence identical to a site-only run. Once the site space
	// is exhausted the env instances set the bound.
	if e.triedSite < e.instSite {
		max = e.instSite
	}
	if max < 1 {
		max = 1
	}
	if window >= max {
		return max
	}
	window *= 2
	if window > max || window <= 0 {
		window = max
	}
	return window
}
