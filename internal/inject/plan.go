package inject

// Plan is a round's armed window: candidates in rank order, best first,
// each holding one or more member instances. One rule decides every reach:
// the first member reached commits the round to the best-ranked candidate
// containing it, and from then on only that candidate's unfired members may
// fire. A window of single instances is thus the flexible priority window
// of §5.2.5 (first reach wins); a candidate of two members carries the two
// faults of one pair (or one, if injecting the first steers execution away
// from the second); Exact's one candidate is a reproduction script. A plan
// holds its run's commit until the next run's NewRuntime Resets it.
//
// A path-addressed member is found by the chain hash of its canonical
// string (its key) and confirmed by the string itself: a reach whose hash
// hits is rendered and compared before it may fire, so a member matches
// exactly the reaches whose canonical string equals its Path, as if the
// index were keyed by the string — without a run building the string of
// any reach that is not a hit.
type Plan struct {
	members  []member         // every candidate's members, flattened in rank order
	byOcc    map[occKey]int32 // occurrence-addressed member -> its first index in members
	byPath   map[uint64]int32 // path-addressed member's key -> first index of a member with that key
	features Features
	budget   int
	lo, hi   int    // members[lo:hi] is the committed candidate; empty until a member fires
	scratch  []byte // the reach being confirmed, rendered
}

type member struct {
	inst  Instance
	cand  int32
	fired bool
}

// matches reports whether a reach is member m: by path when the member is
// path-addressed (never the zero PathKey of occurrence mode) — equal keys,
// then equal strings — else by (site, occurrence).
func (p *Plan) matches(m *member, site string, occ int, at PathKey, tree PathTree) bool {
	if m.inst.Path != "" {
		return at.N != 0 && m.inst.key == at.Hash && m.inst.Path == string(p.render(site, at, tree))
	}
	return m.inst.Site == site && m.inst.Occurrence == occ
}

// render is the canonical string of a reach, in the plan's scratch buffer.
func (p *Plan) render(site string, at PathKey, tree PathTree) []byte {
	p.scratch = appendPath(p.scratch[:0], tree, site, at)
	return p.scratch
}

// confirm turns a key hit at member i into the first member whose Path IS
// the reach's canonical string: i itself, unless two different addresses
// share the hash — then the members are scanned, and -1 means the reach
// only collided with an armed address.
func (p *Plan) confirm(i int32, site string, at PathKey, tree PathTree) int32 {
	path := p.render(site, at, tree)
	if p.members[i].inst.Path == string(path) {
		return i
	}
	for j := range p.members {
		if p.members[j].inst.Path == string(path) {
			return int32(j)
		}
	}
	return -1
}

type occKey struct {
	site string
	occ  int
}

func newPlan(n int) *Plan {
	return &Plan{members: make([]member, 0, n), byOcc: make(map[occKey]int32, n)}
}

// arm adds inst to candidate cand — a pair instance as its two members —
// and returns how many members that was.
func (p *Plan) arm(cand int, inst Instance) int {
	if a, b, ok := PairMembers(inst); ok {
		p.add(cand, a)
		p.add(cand, b)
		return 2
	}
	p.add(cand, inst)
	return 1
}

// add appends one member. The indexes keep a member's first position,
// which is its best-ranked candidate. A path-addressed member off the wire
// (a script, a hand-written plan, a pair's member reference) is keyed here
// by folding its Path the way a live reach of that address is folded; a
// Path that is not a canonical string can equal no reach's and is left
// unindexed.
func (p *Plan) add(cand int, m Instance) {
	i := int32(len(p.members))
	p.features |= m.features()
	if k := (occKey{m.Site, m.Occurrence}); m.Path == "" {
		if _, dup := p.byOcc[k]; !dup {
			p.byOcc[k] = i
		}
	} else {
		canonical := true
		if m.key == 0 {
			var site string
			if site, m.key, canonical = pathSiteHash(m.Path); canonical {
				// The only reach this member can match is at the site its
				// path ends in, whatever Site said.
				m.Site = site
			}
		}
		if _, dup := p.byPath[m.key]; canonical && !dup {
			if p.byPath == nil {
				p.byPath = make(map[uint64]int32, cap(p.members))
			}
			p.byPath[m.key] = i
		}
	}
	p.members = append(p.members, member{inst: m, cand: int32(cand)})
}

// Window returns a plan arming the given candidates, best-ranked first:
// whichever is reached first is the round's injection. Single and pair
// instances may share a window.
func Window(candidates []Instance) *Plan {
	p := newPlan(len(candidates))
	for i, c := range candidates {
		p.budget = max(p.budget, p.arm(i, c))
	}
	return p
}

// Exact returns a plan injecting at every given instance — the
// deterministic reproduction script of step 4.a in the workflow. It is a
// window of one candidate whose members are the instances (a pair instance
// contributing its two), so each fires at most once, in whatever order
// the run reaches them.
func Exact(insts ...Instance) *Plan {
	p := newPlan(len(insts))
	for _, inst := range insts {
		p.budget += p.arm(0, inst)
	}
	return p
}

// Decide is consulted on every reach until the round's budget is spent;
// returning true injects a fault at this exact reach. at is the reach's
// PathKey under PathAddressing (rendered, when a key hits, from tree) and
// zero otherwise, so a path-addressed member never matches in occurrence
// mode while an occurrence-addressed one matches in both.
func (p *Plan) Decide(site string, occ int, at PathKey, tree PathTree) bool {
	if p.hi > p.lo {
		for i := p.lo; i < p.hi; i++ {
			if m := &p.members[i]; !m.fired && p.matches(m, site, occ, at, tree) {
				m.fired = true
				return true
			}
		}
		return false
	}
	i, ok := p.byOcc[occKey{site, occ}]
	if at.N != 0 {
		if j, hit := p.byPath[at.Hash]; hit {
			if j = p.confirm(j, site, at, tree); j >= 0 && (!ok || j < i) {
				i, ok = j, true
			}
		}
	}
	if !ok {
		return false
	}
	cand := p.members[i].cand
	p.lo, p.hi = int(i), int(i)+1
	for p.lo > 0 && p.members[p.lo-1].cand == cand {
		p.lo--
	}
	for p.hi < len(p.members) && p.members[p.hi].cand == cand {
		p.hi++
	}
	p.members[i].fired = true
	return true
}

// Budget is the most faults one round of the plan can inject: the most
// members of any candidate (1 for a window of single instances, as in the
// paper; 2 once it arms a pair).
func (p *Plan) Budget() int { return p.budget }

// Features are what the plan's members need of the run that executes it,
// fixed at construction. A runtime starts with them active, so replaying a
// script needs no flag.
func (p *Plan) Features() Features { return p.features }

// Committed reports which candidate (by rank index) the run committed to,
// once any member has fired.
func (p *Plan) Committed() (int, bool) {
	if p.hi == p.lo {
		return 0, false
	}
	return int(p.members[p.lo].cand), true
}

// Reset uncommits the plan: the next run starts a fresh trial instead of
// replaying half-spent decision state.
func (p *Plan) Reset() {
	for i := p.lo; i < p.hi; i++ {
		p.members[i].fired = false
	}
	p.lo, p.hi = 0, 0
}
