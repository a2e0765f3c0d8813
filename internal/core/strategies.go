package core

// The strategy table. Every exploration algorithm the paper evaluates —
// complete ANDURIL, the §8.3 and §5.2.4 ablation variants and the four §8.4
// comparison systems — is one row: a name plus what distinguishes it inside
// the one round loop (explore, feedback.go). A priority-driven row carries
// the feedbackSpec toggles of its design point; a queue row carries the
// function that fixes its whole injection order from the free run. The
// engine resolves the row once, in prepare, and never switches on a
// strategy name. Adding a strategy is one row below.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"anduril/internal/inject"
	"anduril/internal/logging"
)

// strategy is one row of strategyTable. queue non-nil makes it a queue row:
// round r injects queue[r-1] alone, the window stays pinned at 1, the search
// ends with the queue, and nothing is ranked or learned. Otherwise spec
// selects each round's window by priority and learns from every unsatisfied
// injection.
type strategy struct {
	name  Strategy
	spec  feedbackSpec
	queue func(e *engine) []inject.Instance
}

// armsPairs reports whether the row can ever arm a pair candidate: a queue
// row models a single-fault injector, and the multiply row ranks
// single-fault instances only.
func (s *strategy) armsPairs() bool { return s.queue == nil && !s.spec.multiply }

// strategyTable lists the strategies in Table 2 column order — complete
// ANDURIL, the §8.3 ablations, the §8.4 baselines — then the §5.2.4
// design-choice rows of Table 9, each full feedback with one choice changed
// (ordering by occurrence is dropping the temporal term). SiteDistance is
// the zero spec — static distances only, no feedback, no temporal term.
var strategyTable = [...]strategy{
	{name: FullFeedback, spec: feedbackSpec{useFeedback: true, useTemporal: true}},
	{name: Exhaustive, queue: exhaustiveQueue},
	{name: SiteDistance},
	{name: SiteDistanceLimit, spec: feedbackSpec{limited: true}},
	{name: SiteFeedback, spec: feedbackSpec{useFeedback: true, limited: true}},
	{name: MultiplyFeedback, spec: feedbackSpec{useFeedback: true, useTemporal: true, multiply: true}},
	{name: FATE, queue: fateQueue},
	{name: CrashTuner, queue: crashTunerQueue},
	{name: StackTrace, queue: stackTraceQueue},
	{name: Random, queue: randomQueue},
	{name: SumAggregation, spec: feedbackSpec{useFeedback: true, useTemporal: true, sumAggregation: true}},
	{name: TemporalByOrder, spec: feedbackSpec{useFeedback: true}},
	{name: FixedWindow, spec: feedbackSpec{useFeedback: true, useTemporal: true, fixedWindow: true}},
	{name: GlobalDiff, spec: feedbackSpec{useFeedback: true, useTemporal: true, globalDiff: true}},
}

// Strategies lists Table 2's strategies — the table's first ten rows — in
// column order.
func Strategies() []Strategy { return AllStrategies()[:10] }

// AllStrategies lists every strategy a search accepts: Table 2's, then the
// §5.2.4 design-choice rows.
func AllStrategies() []Strategy {
	out := make([]Strategy, len(strategyTable))
	for i := range strategyTable {
		out[i] = strategyTable[i].name
	}
	return out
}

// strategyByName resolves a strategy name to its table row. An unknown name
// is an error — a misspelled strategy must not silently search nothing.
func strategyByName(name Strategy) (*strategy, error) {
	for i := range strategyTable {
		if strategyTable[i].name == name {
			return &strategyTable[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown strategy %q", name)
}

// exhaustiveQueue enumerates every instance of every causal-graph site in
// deterministic (site id, occurrence) order — the §8.3 "exhaustive fault
// instance" variant. It still benefits from the causal graph (site pruning)
// but has no dynamic prioritization. A pair pseudo-site stores no
// instances, so it adds none: the queue rows model single-fault injectors.
// Under path addressing the whole queue is rendered here, up front: a queue
// is a list of plan-facing candidates, and this ablation row arms all of
// them.
func exhaustiveQueue(e *engine) []inject.Instance {
	var out []inject.Instance
	for _, s := range e.sites {
		for _, inst := range s.instances {
			out = append(out, e.candidateFor(s, inst))
		}
	}
	return out
}

// freeSites returns, sorted, the sites of counts that keep accepts (nil
// keeps all). counts are the free run's per-site occurrence counts, read
// once per queue: the whole dynamic fault space, graph-pruned sites too.
func freeSites(counts map[string]int, keep func(site string) bool) []string {
	var out []string
	for site := range counts {
		if keep == nil || keep(site) {
			out = append(out, site)
		}
	}
	slices.Sort(out)
	return out
}

// breadthFirst orders the given sites' free-run instances occurrence-major:
// the first occurrence of every site, then the second of every site, and
// so on, so one very hot site does not starve the others.
func breadthFirst(counts map[string]int, sites []string) []inject.Instance {
	var out []inject.Instance
	for occ, more := 1, true; more; occ++ {
		more = false
		for _, site := range sites {
			if counts[site] >= occ {
				out = append(out, inject.Instance{Site: site, Occurrence: occ})
				more = true
			}
		}
	}
	return out
}

// fateQueue models FATE's failure-ID exploration: it has no causal graph,
// so it covers every site exercised by the workload; failure IDs collapse
// repeated occurrences, so it explores breadth-first across sites.
func fateQueue(e *engine) []inject.Instance {
	counts := e.freeRes.Env.FI.Counts()
	return breadthFirst(counts, freeSites(counts, nil))
}

// metaInfoTokens approximate CrashTuner's meta-info variables: sites in
// code regions that read or write node/task membership state.
var metaInfoTokens = []string{
	"election", "accept", "connect", "register", "announce", "join",
	"startup", "start", "recover", "lease", "assign", "claim", "rebalance",
}

// crashTunerQueue models CrashTuner: inject around meta-info access points
// only — the first and last occurrences of each matching site (crash-
// recovery windows), ordered by site.
func crashTunerQueue(e *engine) []inject.Instance {
	counts := e.freeRes.Env.FI.Counts()
	sites := freeSites(counts, func(site string) bool {
		return slices.ContainsFunc(metaInfoTokens, func(tok string) bool { return strings.Contains(site, tok) })
	})
	var out []inject.Instance
	for _, site := range sites {
		out = append(out, inject.Instance{Site: site, Occurrence: 1})
	}
	for _, site := range sites {
		if c := counts[site]; c > 1 {
			out = append(out, inject.Instance{Site: site, Occurrence: c})
		}
	}
	for _, site := range sites {
		if c := counts[site]; c > 2 {
			out = append(out, inject.Instance{Site: site, Occurrence: 2})
		}
	}
	return out
}

// stackTraceQueue models the stacktrace-injector of §8.4: it extracts the
// fault sites named in the failure log's error messages (our fault errors
// render as "Kind at site (occurrence n)", the analog of a logged stack
// trace) and injects only at those, breadth-first.
func stackTraceQueue(e *engine) []inject.Instance {
	counts := e.freeRes.Env.FI.Counts()
	return breadthFirst(counts, freeSites(counts, func(site string) bool {
		return slices.ContainsFunc(e.t.FailureLog, func(entry logging.Entry) bool { return strings.Contains(entry.Msg, site) })
	}))
}

// randomQueue models chaos-style random injection over the whole dynamic
// fault space, without replacement.
func randomQueue(e *engine) []inject.Instance {
	counts := e.freeRes.Env.FI.Counts()
	var all []inject.Instance
	for _, site := range freeSites(counts, nil) {
		for occ := 1; occ <= counts[site]; occ++ {
			all = append(all, inject.Instance{Site: site, Occurrence: occ})
		}
	}
	rng := rand.New(rand.NewSource(e.o.Seed ^ 0x5eed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}
