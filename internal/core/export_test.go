package core

import (
	"math"

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
	Occ, LogPos, Amp int
	Addr             inject.PathKey
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
			out[i] = TimelineInstance{inst.occ, inst.logPos, inst.amp, inst.addr}
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

// ExhaustSingleFaults marks every non-pair instance tried, so the window
// opens the pair class — the state of every pair round of a search.
func (p *Prepared) ExhaustSingleFaults() {
	for _, s := range p.e.sites {
		if s.class == pairClass {
			continue
		}
		for _, inst := range s.instances {
			p.e.markTried(pick{site: s, inst: inst})
		}
	}
}

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

// PairScores reports, for every pair instance, the temporal score stamped
// at enumeration next to the oracle: the two members decoded from the pair
// Instance, looked up among the member sites' own instances, each scored by
// a full nearestObs scan.
func (p *Prepared) PairScores(visit func(pair inject.Instance, memo, recomputed float64)) {
	for _, s := range p.e.sites {
		if s.class != pairClass {
			continue
		}
		for _, inst := range s.instances {
			pair := p.e.candidateFor(s, inst)
			a, b, _ := inject.PairMembers(pair)
			visit(pair, inst.pairT,
				p.e.nearestObs(p.e.memberPos(s, a))+p.e.nearestObs(p.e.memberPos(s, b)))
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
