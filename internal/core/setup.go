package core

// Workflow steps 1-2 (§3, §5.1): relevant-observable extraction, template
// matching, spatial distances, and the fault-instance timeline alignment.

import (
	"sort"

	"anduril/internal/cluster"
	"anduril/internal/logdiff"
	"anduril/internal/logging"
	"anduril/internal/trace"
)

// flatten collapses thread names for the global-diff ablation.
func (e *engine) flatten(entries []logging.Entry) []logging.Entry {
	if !e.o.GlobalDiff {
		return entries
	}
	out := make([]logging.Entry, len(entries))
	for i, en := range entries {
		en.Thread = "*"
		out[i] = en
	}
	return out
}

// setup performs workflow steps 1-2: extract relevant observables, match
// them to causal-graph templates, compute spatial distances and the
// fault-instance timeline alignment.
func (e *engine) setup(free *cluster.Result) {
	e.failureLog = e.flatten(e.t.FailureLog)
	cmp := logdiff.Compare(e.flatten(free.Entries), e.failureLog)
	e.align = logdiff.NewAlignment(cmp, len(free.Entries), len(e.t.FailureLog))

	matcher := e.t.Analysis.Matcher()

	for _, key := range cmp.MissingKeys() {
		e.obs = append(e.obs, &observable{
			key:       key,
			positions: cmp.Missing[key],
			templates: matcher.Match(key.Msg),
		})
	}
	e.report.RelevantObservables = len(e.obs)

	// Count first, then allocate each site's instance slice exactly once:
	// free-run traces carry tens of thousands of events, and letting append
	// grow each site's slice from scratch dominates setup's allocations.
	counts := map[string]int{}
	for _, ev := range free.Trace {
		counts[ev.Site]++
	}
	bySite := make(map[string][]instance, len(counts))
	for _, ev := range free.Trace {
		insts, ok := bySite[ev.Site]
		if !ok {
			insts = make([]instance, 0, counts[ev.Site])
		}
		bySite[ev.Site] = append(insts, instance{
			occ:        ev.Occurrence,
			logPos:     ev.LogPos,
			alignedPos: e.align.Map(ev.LogPos),
			addr:       ev.Addr,
			amp:        ev.Amp,
		})
	}
	// Candidate sites, class by class in table order (see classes.go).
	for c, fc := range classTable {
		if e.classes.has(classID(c)) {
			e.sites = append(e.sites, fc.enumerate(e, classID(c), bySite)...)
		}
	}
	sort.Sort(sitesByID(e.sites))

	// Under path addressing every free-run reach carries its path
	// identity; index it per site so an injection run's path-matched reach
	// resolves back to the free-run instance it names.
	if e.o.Addressing == AddrPath {
		for _, s := range e.sites {
			if s.class == pairClass {
				continue
			}
			s.byPath = make(map[uint64]int32, len(s.instances))
			for i, inst := range s.instances {
				if inst.addr.N != 0 {
					s.byPath[inst.addr.Hash] = int32(i)
				}
			}
		}
	}
	e.siteIndex = make(map[string]*siteState, len(e.sites))
	for _, s := range e.sites {
		e.siteIndex[s.id] = s
		e.report.CandidateInstances += len(s.instances)
		if s.class == siteClass {
			e.instSite += len(s.instances)
		}
	}
	e.report.CandidateSites = len(e.sites)

	// A resumed run re-executes the free run (it is deterministic) but its
	// trace continues the original stream, which already carries the
	// FreeRun event — re-emitting it would break prefix concatenation.
	if e.tracing() && e.resume == nil {
		obsLabels := make([]string, len(e.obs))
		for i, o := range e.obs {
			obsLabels[i] = obsLabel(o)
		}
		siteCounts := make([]trace.SiteCount, len(e.sites))
		for i, s := range e.sites {
			siteCounts[i] = trace.SiteCount{Site: s.id, Instances: len(s.instances)}
		}
		e.emit(&trace.Event{
			Type: trace.FreeRun, Target: e.t.ID, Strategy: string(e.o.Strategy),
			Seed: e.o.Seed, LogLines: len(free.Entries), Observables: obsLabels,
			Sites: siteCounts,
		})
	}
}
