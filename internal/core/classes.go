package core

// The fault-class table. A fault class is one kind of injectable fault the
// search can enumerate from the free run: error-return sites (the paper's
// fault space), environment pseudo-sites, partial-failure pseudo-sites and
// combined-fault pairs. Everything class-specific lives in this file — the
// class's name, how its candidates are enumerated (with the synthetic
// distances that rank pseudo-sites), and the runtime features its free run
// and trials need. The rest of the engine reads the stamp enumeration
// leaves on each siteState (class, dists, synth, marker, members) and never
// branches on a class name or re-parses a site-ID prefix. Adding a class
// is one row below plus its enumerate function.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"anduril/internal/inject"
	"anduril/internal/logdiff"
)

// classID indexes classTable. The order IS the search order: each enabled
// class runs both its passes before the next one opens (nextStage), so
// enabling a later class never changes which instances an earlier class's
// search injects, and setup enumerates in the same order, so the pair row
// can build on the site and env candidates already enumerated.
type classID uint8

const (
	siteClass classID = iota
	envClass
	partialClass
	pairClass
	numClasses
)

// Fault-class names for Options.FaultClasses / Target.FaultClasses.
const (
	ClassSite    = "site"
	ClassEnv     = "env"
	ClassPair    = "pair"
	ClassPartial = "partial"
)

// faultClass is one row of the table: enumerate returns the class's
// candidate sites from the free-run timeline (each stamped with its
// class and, where the class has them, synth/marker/members), and execOpt
// (zero when the class needs none) is the runtime feature without which
// its pseudo-sites are not reached at all.
type faultClass struct {
	name      string
	enumerate func(e *engine, c classID, free *timeline) []*siteState
	execOpt   inject.Features
}

var classTable [numClasses]faultClass

// The table is filled here rather than in its declaration because
// enumeratePseudo reads its own row's execOpt, which a package-level
// initializer may not do (initialization cycle).
func init() {
	classTable = [numClasses]faultClass{
		siteClass:    {ClassSite, enumerateSites, 0},
		envClass:     {ClassEnv, enumeratePseudo, inject.EnvFaults},
		partialClass: {ClassPartial, enumeratePseudo, inject.PartialFaults},
		pairClass:    {ClassPair, enumeratePairs, 0},
	}
}

// classSet is the set of enabled fault classes, one bit per classID.
type classSet uint8

// siteOnly is the default class set (the paper's fault space); allClasses
// is every row of the table.
const (
	siteOnly   = classSet(1) << siteClass
	allClasses = classSet(1)<<numClasses - 1
)

func (cs classSet) has(c classID) bool { return cs&(1<<c) != 0 }

// from is the first class of the set at or after c, numClasses if none is.
func (cs classSet) from(c classID) classID {
	for c < numClasses && !cs.has(c) {
		c++
	}
	return c
}

// classSetOf parses class names into a set. No names at all means unset,
// which is the site-only default; an unknown name is an error — a
// misspelled class must not silently search nothing.
func classSetOf(names ...string) (classSet, error) {
	if len(names) == 0 {
		return siteOnly, nil
	}
	var cs classSet
next:
	for _, n := range names {
		for c := range classTable {
			if classTable[c].name == n {
				cs |= 1 << c
				continue next
			}
		}
		return 0, fmt.Errorf("core: unknown fault class %q", n)
	}
	return cs, nil
}

// names renders the set canonically, in alphabetical order.
func (cs classSet) names() []string {
	var out []string
	for c := range classTable {
		if cs.has(classID(c)) {
			out = append(out, classTable[c].name)
		}
	}
	sort.Strings(out)
	return out
}

// features is the union of the set's rows' execOpt: the runtime features
// without which its classes' pseudo-sites are not reached at all.
func (cs classSet) features() inject.Features {
	var f inject.Features
	for c := range classTable {
		if cs.has(classID(c)) {
			f |= classTable[c].execOpt
		}
	}
	return f
}

// ClassFeatures returns the runtime features the named fault classes
// need in every run that is to count their pseudo-sites, a failure's own
// free run included. No names means the site-only default, which needs
// none; an unknown name is an error.
func ClassFeatures(names []string) (inject.Features, error) {
	cs, err := classSetOf(names...)
	if err != nil {
		return 0, err
	}
	return cs.features(), nil
}

// distMatched scores a pseudo-site against an observable that IS the
// site's own injection marker (the production log recorded the event —
// "env: message nn>dn1 delayed" names the delay channel directly, modulo
// sanitized digits). Such evidence outranks every synthetic prior, so a
// failure whose log carries the marker is searched marker-first instead
// of class-order.
const distMatched = 1

// pseudoPrior ranks the pseudo-site classes. A pseudo-site has no
// causal-graph node, so its spatial distance to every observable is a
// synthetic per-class constant — larger than any graph path in the
// dataset, so pseudo-site instances rank below every causally-connected
// error-return site until feedback bumps reorder them. Within env the
// order (crash < partition < drop < delay) encodes blast radius: a crash
// perturbs the most behavior, so it is the most promising guess for an
// unexplained failure. The partial band sits above the env band, so with
// both classes enabled the cleaner, better-understood env faults are
// tried first; within it the order encodes how much persistent state the
// fault corrupts: a torn rename leaves a double ledger recovery must
// untangle, a short write or mid-append ENOSPC corrupts one file's tail,
// a duplicated delivery double-applies one message, and eintr only
// surfaces a spurious error for a delivered message.
//
// minAmp calibrates candidate amplitude from the free run — the Zhang et
// al. realism idea: a short-write or enospc-after instance enters only
// where the observed payload was at least two bytes, so the persisted
// prefix is a nonempty strict prefix of the data (smaller payloads degrade
// to the clean all-or-nothing failure the site class already covers).
var pseudoPrior = map[inject.PseudoClass]struct {
	dist   float64
	minAmp int
}{
	inject.EnvCrash:          {24, 0},
	inject.EnvPartition:      {26, 0},
	inject.EnvDrop:           {28, 0},
	inject.EnvDelay:          {30, 0},
	inject.PartialTornRename: {34, 0},
	inject.PartialShortWrite: {36, 2},
	inject.PartialENOSPC:     {38, 2},
	inject.PartialDupDeliver: {40, 0},
	inject.PartialEINTR:      {42, 0},
}

// enumerateSites returns the error-return candidate sites: causally
// connected to at least one relevant observable AND exercised by the
// workload (otherwise there is no instance to inject). Their spatial
// distances L_{i,k} come from the static causal graph, computed once per
// analysis Result and shared read-only across reproductions.
func enumerateSites(e *engine, _ classID, free *timeline) []*siteState {
	relevantTemplates := map[string]bool{}
	for _, o := range e.obs {
		for _, t := range o.templates {
			relevantTemplates[t] = true
		}
	}
	var out []*siteState
	for siteID, dists := range e.t.Analysis.SiteDistances() {
		reachesRelevant := false
		for tmpl := range dists {
			if relevantTemplates[tmpl] {
				reachesRelevant = true
				break
			}
		}
		if !reachesRelevant {
			continue
		}
		s, reached := free.fi.ReachIndex(siteID)
		if !reached {
			continue
		}
		if insts := free.instances(s, 0); len(insts) > 0 {
			out = append(out, &siteState{id: siteID, class: siteClass, dists: dists, instances: insts})
		}
	}
	return out
}

// enumeratePseudo returns class c's pseudo-sites: the ones whose family
// is the feature the class arms. They come from the free-run trace alone
// (the feature-enabled network and disk reach them once per message or
// perturbable operation), not the causal graph: a crash or partition is
// causally adjacent to everything the topology connects, so enumeration
// is gated on the class being enabled rather than on graph connectivity,
// and only sites and channels the scenario actually exercises appear.
func enumeratePseudo(e *engine, c classID, free *timeline) []*siteState {
	var out []*siteState
	for s := range free.fi.SitesReached() {
		siteID := free.fi.ReachedSite(s)
		f, ok := inject.ParsePseudo(siteID)
		if !ok || f.Family != classTable[c].execOpt {
			continue
		}
		prior := pseudoPrior[f.Class]
		insts := free.instances(s, prior.minAmp)
		if len(insts) == 0 {
			continue
		}
		out = append(out, &siteState{
			id: siteID, class: c, synth: prior.dist,
			marker: logdiff.Sanitize(f.Marker()), instances: insts,
		})
	}
	return out
}

// enumeratePairs returns the combined-fault pseudo-sites: every unordered
// pair of donor sites (self-pairs included — two faults at one site,
// distinct instances) except env×env, whose joint blast radius adds
// nothing the members don't cover. The donors are the graph-pruned
// error-return sites plus, with env enabled, the env pseudo-sites — the
// candidates the earlier rows already put in e.sites, or, when the site
// class itself is off, member sites discovered here that never enter
// e.sites themselves. Partial sites are not donors: a pair member must
// be a fault the member classes already search. Donors are sorted first
// so pair enumeration order — and with it every pair instance's
// occurrence identity — is deterministic. A pair site is only its two
// members: it can have millions of instances, scanned where read (scanPair).
func enumeratePairs(e *engine, _ classID, free *timeline) []*siteState {
	var donors []*siteState
	if !e.classes.has(siteClass) {
		donors = enumerateSites(e, siteClass, free)
	}
	for _, s := range e.sites {
		if s.class == siteClass || s.class == envClass {
			donors = append(donors, s)
		}
	}
	slices.SortFunc(donors, compareSiteIDs)
	// A donor instance is a member of many pair instances; its distance to
	// the nearest observable is the same in all of them. It is measured to
	// ALL observables: pair members routinely explain different log lines,
	// so clamping both to a site's one chosen observable would mis-rank
	// every cross pair.
	for _, d := range donors {
		d.near = make([]float64, len(d.instances))
		for j, inst := range d.instances {
			d.near[j] = nearest(inst.alignedPos, e.obs)
		}
	}
	var out []*siteState
	for i, sa := range donors {
		for _, sb := range donors[i:] {
			if sa.class == envClass && sb.class == envClass {
				continue
			}
			st := &siteState{id: inject.PairSiteID(sa.id, sb.id), class: pairClass, members: [2]*siteState{sa, sb}}
			if st.size() > 0 {
				out = append(out, st)
			}
		}
	}
	return out
}

// size is the site's candidate-instance count. A pair site's instances
// join one instance of each member: every cross combination for distinct
// members, the unordered ones (a's before b's) for a self-pair.
func (s *siteState) size() int {
	if s.class != pairClass {
		return len(s.instances)
	}
	na, nb := len(s.members[0].instances), len(s.members[1].instances)
	if s.members[0] == s.members[1] {
		return na * (na - 1) / 2
	}
	return na * nb
}

// pairMembers decodes a pair instance's occurrence into its members'
// indices. Occurrences number the combinations from 1 in enumeration order:
// a's instances outer, b's inner, and for a self-pair only the b's after a.
func (s *siteState) pairMembers(occ int) (ai, bi int) {
	nb := len(s.members[1].instances)
	i := occ - 1
	if s.members[0] != s.members[1] {
		return i / nb, i % nb
	}
	// Row ai of a self-pair holds the nb-1-ai combinations with bi > ai.
	for ai = 0; i >= nb-1-ai; ai++ {
		i -= nb - 1 - ai
	}
	return ai, ai + 1 + i
}

// compareSiteIDs orders candidate sites by their unique ids.
func compareSiteIDs(a, b *siteState) int { return cmp.Compare(a.id, b.id) }
