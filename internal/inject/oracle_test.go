package inject

// oracle keeps the decision semantics of the plan types this package used
// to have, as the reference the one Plan is fuzzed against (fuzz_test.go).
// cands are the armed candidates in rank order, each decoded to its
// members. Read by candidate shape it is each deleted type verbatim:
// one-member candidates are the window plan (a set lookup, by path or by
// (site, occurrence); the runtime's budget of 1 ends the round at the first
// hit), two-member candidates the pair plan (a linear scan in rank order
// commits to the first pair holding the reached member, then only that
// pair's unfired members fire), one candidate of n members the composed
// exact plans (independent members consulted in order, each firing once).
type oracle struct {
	cands     [][]Instance
	committed int // rank of the committed candidate, -1 until a member fires
	fired     []bool
	spent     int
}

func newOracle(cands [][]Instance) *oracle { return &oracle{cands: cands, committed: -1} }

func oracleMatch(m Instance, site string, occ int, path string) bool {
	if m.Path != "" {
		return path != "" && m.Path == path
	}
	return m.Site == site && m.Occurrence == occ
}

// shape is what the runtime read off a plan at creation: its injection
// budget (the most members of any candidate) and the features it needs.
func (o *oracle) shape() (budget int, f Features) {
	for _, c := range o.cands {
		budget = max(budget, len(c))
		for _, m := range c {
			f |= m.features()
		}
	}
	return budget, f
}

// decide is one reach as Runtime.decide saw it: the budget gate, then the
// plan. path is "" in occurrence mode.
func (o *oracle) decide(site string, occ int, path string) bool {
	if budget, _ := o.shape(); o.spent >= budget {
		return false
	}
	for i := 0; i < len(o.cands) && o.committed < 0; i++ {
		for _, m := range o.cands[i] {
			if oracleMatch(m, site, occ, path) {
				o.committed, o.fired = i, make([]bool, len(o.cands[i]))
				break
			}
		}
	}
	if o.committed < 0 {
		return false
	}
	for j, m := range o.cands[o.committed] {
		if !o.fired[j] && oracleMatch(m, site, occ, path) {
			o.fired[j] = true
			o.spent++
			return true
		}
	}
	return false
}
