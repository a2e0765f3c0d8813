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
// set only grows, so an equal size is an equal set) and the best observable
// the temporal score measures from. Instances, observable positions, pair
// scores and the strategy row are fixed for the search.
type pickMemo struct {
	valid   bool
	tried   int
	bestObs int
	inst    instance
	found   bool
}

// bestUntried returns the site's highest-priority untried instance: the
// memoized answer while none of its inputs has moved, else a fresh scan.
func (e *engine) bestUntried(s *siteState) (instance, bool) {
	m := &s.pick
	if !m.valid || m.tried != s.tried.Len() || m.bestObs != s.bestObs {
		inst, found := e.scanUntried(s)
		*m = pickMemo{valid: true, tried: s.tried.Len(), bestObs: s.bestObs, inst: inst, found: found}
	}
	if e.checkPick != nil {
		e.checkPick(s)
	}
	return m.inst, m.found
}

// scanUntried is bestUntried computed from scratch, under the strategy row's
// instance cap and instance order: temporal distance, or occurrence.
func (e *engine) scanUntried(s *siteState) (instance, bool) {
	spec := e.strategy.spec
	bestScore := math.Inf(1)
	var best instance
	found := false
	for i, inst := range s.instances {
		if spec.limited && i >= instanceLimit {
			break
		}
		if s.tried.Has(inst.occ) {
			continue
		}
		score := float64(inst.occ)
		if spec.useTemporal {
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

// pick is one candidate of the round's window: a site and the free-run
// instance selected from it, with the multiply row's score. The window is
// kept as picks and rendered to the plan-facing candidates in the same
// order, so the candidate a run commits to names, by its index, the
// free-run instance to mark tried — whatever occurrence the run reached it
// at.
type pick struct {
	site  *siteState
	inst  instance
	score float64
}

// fillWindow selects the round's candidate window from the ranked
// sites: the best untried instance of each site, in ranking order,
// until the window is full. Selection runs one fault class at a time in
// table order (classes.go) — error-return sites first, and each later
// class only when no untried instance of any earlier class can be
// selected at all — so enabling a wider class never changes which
// instances the narrower search injects: each class runs to exhaustion
// in its exact original order before the next space opens.
func (e *engine) fillWindow(ranked []*siteState) []inject.Instance {
	picks := e.picks[:0]
	for c := classID(0); c < numClasses && len(picks) == 0; c++ {
		for _, s := range ranked {
			if len(picks) >= e.window {
				break
			}
			if s.class != c {
				continue
			}
			if inst, ok := e.bestUntried(s); ok {
				picks = append(picks, pick{site: s, inst: inst})
			}
		}
	}
	return e.render(picks)
}

// multiplyCandidates ranks all untried (site, instance) pairs by the
// product (F_i+1) x (T_{i,j}+1) — the §8.3 "multiply feedback" variant that
// replaces the two-level selection.
func (e *engine) multiplyCandidates(ranked []*siteState) []inject.Instance {
	picks := e.picks[:0]
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
			picks = append(picks, pick{site: s, inst: inst, score: (s.f + 1) * (t + 1)})
		}
	}
	slices.SortFunc(picks, comparePicks)
	return e.render(picks[:min(len(picks), e.window)])
}

// render keeps picks as the round's window and returns its plan-facing
// candidates, in the same order.
func (e *engine) render(picks []pick) []inject.Instance {
	e.picks = picks
	out := e.candBuf[:0]
	for _, p := range picks {
		out = append(out, e.candidateFor(p.site, p.inst))
	}
	e.candBuf = out
	return out
}

// comparePicks orders picks by (score, site id, occurrence) — strict and
// total, since (site, occurrence) is unique.
func comparePicks(a, b pick) int {
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
// fault space exhausted. It runs only after a round that injected nothing,
// so it counts the bound off the sites rather than keeping it up to date.
func (e *engine) growWindow(window int) int {
	if e.strategy.spec.fixedWindow {
		return window
	}
	// While untried site-class instances remain, the window only ever
	// holds site candidates (see fillWindow), so it clamps to the
	// site-class count — with env enumeration enabled this keeps the
	// growth sequence identical to a site-only run. Once the site space
	// is exhausted every candidate instance sets the bound.
	all, site, siteOpen := 0, 0, false
	for _, s := range e.sites {
		all += len(s.instances)
		if s.class == siteClass {
			site += len(s.instances)
			siteOpen = siteOpen || s.tried.Len() < len(s.instances)
		}
	}
	bound := all
	if siteOpen {
		bound = site
	}
	bound = max(bound, 1)
	if window >= bound {
		return bound
	}
	return min(2*window, bound)
}
