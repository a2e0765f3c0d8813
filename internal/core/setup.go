package core

// Workflow steps 1-2 (§3, §5.1): relevant-observable extraction, template
// matching, spatial distances, and the fault-instance timeline alignment.

import (
	"slices"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/logging"
	"anduril/internal/trace"
)

// flatten collapses thread names for the global-diff ablation.
func (e *engine) flatten(entries []logging.Entry) []logging.Entry {
	if !e.strategy.spec.globalDiff {
		return entries
	}
	out := make([]logging.Entry, len(entries))
	for i, en := range entries {
		en.Thread = "*"
		out[i] = en
	}
	return out
}

// timeline is the free run's reach trace indexed by site, read in place: the
// runtime's chunks are not copied, and a site's instances are built only
// when a class enumerates it — most reached sites are never candidates (f1:
// 46 candidate instances of 2667 reaches), and only a candidate's positions
// need aligning. A site is its index in the run's first-reach order, which
// every kept reach carries; fi resolves names to indices and back.
type timeline struct {
	e      *engine
	fi     *inject.Runtime
	chunks [][]inject.TraceEvent
	spans  []int32 // site index s's reaches are order[spans[s]:spans[s+1]]
	order  []int32 // reach indices grouped by site, in run order within a site
}

// indexReaches groups the reaches by site: a counting sort of their indices
// on each reach's site index.
func (e *engine) indexReaches(fi *inject.Runtime) *timeline {
	tl := &timeline{e: e, fi: fi, chunks: fi.TraceChunks(), spans: make([]int32, fi.SitesReached()+1)}
	n := 0
	for _, chunk := range tl.chunks {
		for i := range chunk {
			tl.spans[chunk[i].SiteIndex()]++
		}
		n += len(chunk)
	}
	// Running sums turn each site's count into its span's end; filling from
	// the last reach back moves each end down to its span's start.
	for s := 1; s < len(tl.spans); s++ {
		tl.spans[s] += tl.spans[s-1]
	}
	tl.order = make([]int32, n)
	for i := int32(n) - 1; i >= 0; i-- {
		s := tl.event(i).SiteIndex()
		tl.spans[s]--
		tl.order[tl.spans[s]] = i
	}
	return tl
}

// event is reach i of the run.
func (tl *timeline) event(i int32) *inject.TraceEvent {
	return &tl.chunks[i/inject.TraceChunk][i%inject.TraceChunk]
}

// instances builds the free-run instances of the site with index s, in run
// order, keeping those whose observed amplitude is at least minAmp.
func (tl *timeline) instances(s, minAmp int) []instance {
	reaches := tl.order[tl.spans[s]:tl.spans[s+1]]
	if len(reaches) == 0 {
		return nil
	}
	out := make([]instance, 0, len(reaches))
	for _, i := range reaches {
		ev := tl.event(i)
		if ev.Amp < minAmp {
			continue
		}
		out = append(out, instance{
			occ:        ev.Occurrence,
			alignedPos: tl.e.align.Map(ev.LogPos),
			addr:       ev.Addr,
		})
	}
	return out
}

// setup performs workflow steps 1-2: extract relevant observables, match
// them to causal-graph templates, compute spatial distances and the
// fault-instance timeline alignment.
func (e *engine) setup(free *cluster.Result) {
	e.failure = logdiff.Prepare(e.flatten(e.t.FailureLog))
	cmp := e.ws.diff.Compare(e.flatten(free.Entries), e.failure)
	e.align = logdiff.NewAlignment(cmp, len(free.Entries), len(e.t.FailureLog))

	matcher := e.t.Analysis.Matcher()

	for _, key := range cmp.MissingKeys() {
		idx, _ := e.failure.KeyIndex(key) // a missing key is a key of the failure log
		e.obs = append(e.obs, &observable{
			key:       key,
			keyIdx:    idx,
			positions: cmp.Missing[key],
			templates: matcher.Match(key.Msg),
		})
	}
	e.report.RelevantObservables = len(e.obs)

	tl := e.indexReaches(free.Env.FI)
	// Candidate sites, class by class in table order (see classes.go).
	for c, fc := range classTable {
		if e.classes.has(classID(c)) {
			e.sites = append(e.sites, fc.enumerate(e, classID(c), tl)...)
		}
	}
	slices.SortFunc(e.sites, compareSiteIDs)

	for _, s := range e.sites {
		e.report.CandidateInstances += s.size()
		if s.id == e.t.Root.Site {
			e.root = s
		}
	}
	e.report.CandidateSites = len(e.sites)

	if e.tracing() {
		obsLabels := make([]string, len(e.obs))
		for i, o := range e.obs {
			obsLabels[i] = obsLabel(o)
		}
		siteCounts := make([]trace.SiteCount, len(e.sites))
		for i, s := range e.sites {
			siteCounts[i] = trace.SiteCount{Site: s.id, Instances: s.size()}
		}
		e.emit(&trace.Event{
			Type: trace.FreeRun, Target: e.t.ID, Strategy: string(e.o.Strategy),
			Seed: e.o.Seed, LogLines: len(free.Entries), Observables: obsLabels,
			Sites: siteCounts,
		})
	}
}
