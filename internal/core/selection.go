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
func (e *engine) temporalDistance(s *siteState, inst instance) float64 {
	if s.bestObs < 0 {
		return inst.alignedPos
	}
	return nearest(inst.alignedPos, e.obs[s.bestObs:s.bestObs+1])
}

// nearest is the distance from an aligned position to the closest position
// of the given observables on the failure timeline.
func nearest(pos float64, obs []*observable) float64 {
	best := math.Inf(1)
	for _, o := range obs {
		for _, p := range o.positions {
			best = min(best, math.Abs(pos-float64(p)))
		}
	}
	return best
}

// pickMemo is a site's last bestUntried answer with everything the answer
// read that can change between rounds: how many instances are tried (the
// set only grows, so an equal size is an equal set) and the best observable
// the temporal score measures from. Instances, observable positions, pair
// members' distances and the strategy row are fixed for the search.
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
	if s.class == pairClass {
		return e.scanPair(s)
	}
	spec := e.strategy.spec
	bestScore := math.Inf(1)
	var best instance
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
		}
	}
	return best, best.occ > 0 // occurrences count from 1
}

// scanPair is scanUntried over a pair site's instances, walked in
// occurrence order (pairMembers), never stored. A pair's T is the sum of
// each member's distance to the relevant observable nearest to IT (near):
// scoring only the combined position would leave the earlier fault
// unconstrained, so hundreds of combinations tie, whereas both faults of a
// real combined failure land near evidence of their own effect. With no
// best observable a pair is scored by its position, the later member's:
// the combined effect completes only when the second fault lands.
func (e *engine) scanPair(s *siteState) (instance, bool) {
	spec := e.strategy.spec
	sa, sb := s.members[0], s.members[1]
	bestScore := math.Inf(1)
	var best instance
	occ := 0
	for ai, a := range sa.instances {
		bStart := 0
		if sa == sb {
			bStart = ai + 1
		}
		for bi := bStart; bi < len(sb.instances); bi++ {
			occ++
			if spec.limited && occ > instanceLimit {
				return best, best.occ > 0
			}
			if s.tried.Has(occ) {
				continue
			}
			score := float64(occ)
			if spec.useTemporal && s.bestObs < 0 {
				score = max(a.alignedPos, sb.instances[bi].alignedPos)
			} else if spec.useTemporal {
				score = sa.near[ai] + sb.near[bi]
			}
			if score < bestScore {
				bestScore = score
				best = instance{occ: occ}
			}
		}
	}
	return best, best.occ > 0
}

// candidateFor renders a selected instance as the plan-facing candidate:
// a pair site's instance as the pair Instance (site, occurrence AND the
// member references its two member instances render as), everything else a
// (site, occurrence) pair plus, under path addressing, the canonical path
// and the hash that keys it.
func (e *engine) candidateFor(s *siteState, inst instance) inject.Instance {
	if s.class == pairClass {
		ai, bi := s.pairMembers(inst.occ)
		pi := inject.PairInstance(
			e.candidateFor(s.members[0], s.members[0].instances[ai]),
			e.candidateFor(s.members[1], s.members[1].instances[bi]),
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

// fillWindow selects the round's candidate window from the ranked sites of
// the open stage's class (nextStage): the best untried instance of each
// site, in ranking order, until the window is full.
func (e *engine) fillWindow(ranked []*siteState) []inject.Instance {
	picks := e.picks[:0]
	for _, s := range ranked {
		if len(picks) >= e.window {
			break
		}
		if s.class != e.class {
			continue
		}
		if inst, ok := e.bestUntried(s); ok {
			picks = append(picks, pick{site: s, inst: inst})
		}
	}
	return e.render(picks)
}

// multiplyCandidates ranks all untried (site, instance) pairs of the open
// stage's class by the product (F_i+1) x (T_{i,j}+1) — the §8.3 "multiply
// feedback" variant that replaces the two-level selection.
func (e *engine) multiplyCandidates(ranked []*siteState) []inject.Instance {
	picks := e.picks[:0]
	for _, s := range ranked {
		if s.class != e.class || math.IsInf(s.f, 1) {
			continue
		}
		// A pair site stores no instances: the ablation ranks single faults.
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

// growWindow doubles the flexible window (§5.2.5) when the round's
// selection filled it. A selection that did not fill its window already
// holds every candidate the open class offers — one per site in fillWindow,
// one per instance in multiplyCandidates — and within a stage that set only
// shrinks, so a wider window would select nothing more. The window thus
// stays within twice the largest selection, and growth reads only the
// open class's picks.
func (e *engine) growWindow(window int) int {
	if e.strategy.spec.fixedWindow || len(e.picks) < window {
		return window
	}
	return 2 * window
}
