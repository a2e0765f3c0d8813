package core

import (
	"math"
	"slices"

	"anduril/internal/inject"
)

// ReproduceFresh is Reproduce with a fresh environment built for every
// trial — its workspace starts empty and no environment enters it: the
// reference a search that recycles environments must equal, byte for byte.
func ReproduceFresh(t *Target, o Options) *Report {
	e := newEngine(t, o.withDefaults(), new(workspace))
	e.freshEnvs = true
	return e.run()
}

// ReproduceCheckingPicks is Reproduce with every bestUntried answer — a
// memo hit or a fresh scan — compared against a scan of its own; it
// returns how many answers were checked and how many differed.
func ReproduceCheckingPicks(t *Target, o Options) (rep *Report, checked, differed int) {
	e := newEngine(t, o.withDefaults(), new(workspace))
	e.checkPick = func(s *siteState) {
		checked++
		if inst, found := e.scanUntried(s); found != s.pick.found || inst != s.pick.inst {
			differed++
		}
	}
	return e.run(), checked, differed
}

// A Workspace is a search's working memory held outside the pool, so that a
// test chooses which search used it last.
type Workspace struct{ ws workspace }

// Reproduce is core.Reproduce in w.
func (w *Workspace) Reproduce(t *Target, o Options) *Report {
	return newEngine(t, o.withDefaults(), &w.ws).run()
}

// Prepared is an engine after the free run and setup, with the initial
// full-feedback ranking: the state a search's first round starts from.
// Tests and benchmarks in core_test need it because only they can build
// dataset targets (failures imports core).
type Prepared struct {
	e      *engine
	ranked []*siteState
	stored []storedPair // FillWindowStored's buffer
}

// Prepare runs t's free run and setup under o.
func Prepare(t *Target, o Options) (*Prepared, error) {
	e := newEngine(t, o.withDefaults(), new(workspace))
	if err := e.prepare(); err != nil {
		return nil, err
	}
	return &Prepared{e: e, ranked: e.rankedSites()}, nil
}

// TimelineInstance is a free-run instance as the timeline builds it.
type TimelineInstance struct {
	Occ  int
	Addr inject.PathKey
}

// FreeRunReaches is the prepared search's free-run trace, in run order.
func (p *Prepared) FreeRunReaches() []inject.TraceEvent { return p.e.freeRes.Env.FI.Trace() }

// Timeline is the free run grouped by site as setup groups it: every reached
// site's instances and the enumerated env and partial pseudo-sites' own,
// their amplitude filter applied.
func (p *Prepared) Timeline() (reached, pseudo map[string][]TimelineInstance) {
	exported := func(insts []instance) []TimelineInstance {
		out := make([]TimelineInstance, len(insts))
		for i, inst := range insts {
			out[i] = TimelineInstance{inst.occ, inst.addr}
		}
		return out
	}
	fi := p.e.freeRes.Env.FI
	tl := p.e.indexReaches(fi)
	reached = map[string][]TimelineInstance{}
	for s := range fi.SitesReached() {
		reached[fi.ReachedSite(s)] = exported(tl.instances(s, 0))
	}
	pseudo = map[string][]TimelineInstance{}
	for _, s := range p.e.sites {
		if s.class == envClass || s.class == partialClass {
			pseudo[s.id] = exported(s.instances)
		}
	}
	return reached, pseudo
}

// PseudoCandidate reports whether a free-run reach of a pseudo-site can be a
// candidate of the prepared search: its class is enabled and the reach's
// amplitude is at least the class's minimum.
func (p *Prepared) PseudoCandidate(site string, amp int) bool {
	f, ok := inject.ParsePseudo(site)
	return ok && p.e.feats&f.Family != 0 && amp >= pseudoPrior[f.Class].minAmp
}

// ExhaustSingleFaults opens the pair class's first stage — the state of
// every pair round of a search.
func (p *Prepared) ExhaustSingleFaults() { p.e.class = pairClass }

// FillWindow is one round's candidate selection from cold, under the
// prepared search's strategy row: every site's memoized pick is dropped
// first, so each call scans.
func (p *Prepared) FillWindow(window int) []inject.Instance {
	for _, s := range p.e.sites {
		s.pick.valid = false
	}
	p.e.window = window
	return p.e.fillWindow(p.ranked)
}

// MarkTried marks the last FillWindow's picks tried (none before the first),
// as a round that injected each of them would, and then, on every site, the
// occurrences mark draws for the site's instance count.
func (p *Prepared) MarkTried(mark func(size int) []int) {
	for _, pk := range p.e.picks {
		p.e.markTried(pk)
	}
	for _, s := range p.e.sites {
		for _, occ := range mark(s.size()) {
			s.tried.Add(occ)
		}
	}
}

// storedPair is a pair instance as enumeration stored it before pair sites
// kept only their members: the reference scanPair and pairMembers are held
// to.
type storedPair struct {
	occ        int
	alignedPos float64
	pair       [2]int32
	pairT      float64
}

// storePair enumerates a pair site's instances into buf as enumeration
// once stored them: occurrences counted in enumeration order, each with its
// members and its temporal score, positioned at the later member.
func storePair(s *siteState, buf []storedPair) []storedPair {
	sa, sb := s.members[0], s.members[1]
	out := slices.Grow(buf[:0], s.size())
	for ai, a := range sa.instances {
		bStart := 0
		if sa == sb {
			bStart = ai + 1
		}
		for bi := bStart; bi < len(sb.instances); bi++ {
			out = append(out, storedPair{
				occ:        len(out) + 1,
				alignedPos: max(a.alignedPos, sb.instances[bi].alignedPos),
				pair:       [2]int32{int32(ai), int32(bi)},
				pairT:      sa.near[ai] + sb.near[bi],
			})
		}
	}
	return out
}

// FillWindowStored is FillWindow with every pair site's instances stored
// and scanned, and its pick rendered from the stored members, as selection
// did before pair sites kept only their members. It leaves the sites'
// memos and the engine's picks alone.
func (p *Prepared) FillWindowStored(window int) []inject.Instance {
	e := p.e
	var out []inject.Instance
	for _, s := range p.ranked {
		if len(out) >= window {
			break
		}
		if s.class != e.class {
			continue
		}
		if s.class != pairClass {
			if inst, ok := e.scanUntried(s); ok {
				out = append(out, e.candidateFor(s, inst))
			}
			continue
		}
		p.stored = storePair(s, p.stored)
		if inst, ok := e.scanStored(s, p.stored); ok {
			sa, sb := s.members[0], s.members[1]
			a, b := sa.instances[inst.pair[0]], sb.instances[inst.pair[1]]
			pi := inject.PairInstance(
				inject.Instance{Site: sa.id, Occurrence: a.occ, Path: e.pathOf(sa, a)},
				inject.Instance{Site: sb.id, Occurrence: b.occ, Path: e.pathOf(sb, b)},
			)
			pi.Occurrence = inst.occ
			out = append(out, pi)
		}
	}
	return out
}

// scanStored is the untried scan over a pair site's stored instances, under
// the strategy row's instance cap and order.
func (e *engine) scanStored(s *siteState, insts []storedPair) (storedPair, bool) {
	spec := e.strategy.spec
	bestScore := math.Inf(1)
	var best storedPair
	found := false
	for i, inst := range insts {
		if spec.limited && i >= instanceLimit {
			break
		}
		if s.tried.Has(inst.occ) {
			continue
		}
		score := float64(inst.occ)
		if spec.useTemporal && s.bestObs < 0 {
			score = inst.alignedPos
		} else if spec.useTemporal {
			score = inst.pairT
		}
		if score < bestScore {
			bestScore = score
			best = inst
			found = true
		}
	}
	return best, found
}

// PairSizes reports every pair site's instance count, as size counts it
// and as storePair enumerates it.
func (p *Prepared) PairSizes(visit func(site string, size, stored int)) {
	var buf []storedPair
	for _, s := range p.e.sites {
		if s.class == pairClass {
			buf = storePair(s, buf)
			visit(s.id, s.size(), len(buf))
		}
	}
}

// PairScores reports, for every pair instance, the temporal score the scan
// reads next to the oracle: the two members decoded from the pair
// Instance, looked up among the member sites' own instances, each scored by
// a full scan of every observable's positions.
func (p *Prepared) PairScores(visit func(pair inject.Instance, scanned, recomputed float64)) {
	for _, s := range p.e.sites {
		if s.class != pairClass {
			continue
		}
		sa, sb := s.members[0], s.members[1]
		for occ := 1; occ <= s.size(); occ++ {
			ai, bi := s.pairMembers(occ)
			pair := p.e.candidateFor(s, instance{occ: occ})
			a, b, _ := inject.PairMembers(pair)
			visit(pair, sa.near[ai]+sb.near[bi],
				nearest(p.e.memberPos(s, a), p.e.obs)+nearest(p.e.memberPos(s, b), p.e.obs))
		}
	}
}

// memberPos finds a decoded pair member among the pair site's member
// sites and returns its aligned position (NaN when it names no instance).
func (e *engine) memberPos(s *siteState, m inject.Instance) float64 {
	for _, ms := range s.members {
		if ms.id != m.Site {
			continue
		}
		for _, inst := range ms.instances {
			if (m.Path != "" && e.pathOf(ms, inst) == m.Path) || (m.Path == "" && inst.occ == m.Occurrence) {
				return inst.alignedPos
			}
		}
	}
	return math.NaN()
}

// PriorityRows lists the strategies whose rounds select by priority: every
// row but the queue rows.
func PriorityRows() []Strategy {
	var out []Strategy
	for _, s := range strategyTable {
		if s.queue == nil {
			out = append(out, s.name)
		}
	}
	return out
}
