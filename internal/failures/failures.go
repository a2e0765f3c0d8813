// Package failures holds the failure dataset: the 22 site-rooted
// scenarios mirroring the real-world issues of Table 5 (f1–f22), the
// environment-rooted scenarios (f23–f25, f29), the anti-entropy
// scenarios (f26–f28), the combined-fault scenarios (f30–f31), and the
// partial-failure scenarios (f32–f34). Each
// scenario packages the paper's four inputs for one failure: the target
// system (its code is what the analyzer instruments), a driving
// workload, a failure oracle, and a production failure log.
//
// The failure log is produced the way the paper does for tickets without
// one (§8): the ground-truth fault is injected once, under a seed disjoint
// from the explorer's, and the resulting log is rendered to text and parsed
// back — so the explorer only ever sees what a production log file carries.
package failures

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"anduril/internal/analysis"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logging"
	"anduril/internal/oracle"
)

// Scenario is one dataset entry.
type Scenario struct {
	ID          string // "f1" .. "f22"
	Issue       string // upstream issue id, e.g. "ZK-2247"
	System      string // "zk", "dfs", "tablestore", "mq", "kvstore"
	Description string
	Kind        inject.Kind // fault type of the root cause (Table 5)

	Workload cluster.Workload
	Horizon  des.Time
	Oracle   oracle.Oracle
	SrcDirs  []string // source directories the Instrumenter analyzes

	// FaultClasses names the fault classes the explorer searches for this
	// scenario (core.ClassSite / core.ClassEnv / core.ClassPair /
	// core.ClassPartial). Nil keeps the paper's site-only space — the
	// f1–f22 dataset — while the env-rooted scenarios (f23+) opt into
	// environment enumeration, the combined-fault scenarios (f30–f31)
	// into pair enumeration, and the partial-failure scenarios (f32–f34)
	// into partial enumeration.
	FaultClasses []string

	// RootSite is the ground-truth root-cause fault site.
	RootSite string
	// FindRoot locates the ground-truth dynamic instance in a free run's
	// trace (the right site at the right occurrence). The seed of the free
	// run is passed for scenarios that must trial-inject to confirm it.
	FindRoot func(free *cluster.Result, seed int64) (inject.Instance, bool)

	// NewRootCause, when non-empty, describes the deeper root cause the
	// explorer can expose for this failure (Table 6 analog).
	NewRootCause string

	// target memoizes BuildTarget: one build per scenario per process.
	target struct {
		once sync.Once
		t    *core.Target
		err  error
	}
}

// FailureSeed is the seed of the simulated "production" run that generated
// the failure log; the explorer's rounds use unrelated seeds.
const FailureSeed = 9999

// analysisEntry caches one system's static analysis behind a sync.Once,
// so concurrent Analyze calls for different systems proceed in parallel
// while calls for the same system share a single computation.
type analysisEntry struct {
	once sync.Once
	res  *analysis.Result
	err  error
}

var (
	analysisMu    sync.Mutex // guards the cache map only, never the analysis
	analysisCache = map[string]*analysisEntry{}
)

// Analyze returns the (cached) static analysis for the scenario's system.
// It is safe for concurrent use; the returned Result is shared and must be
// treated as read-only (every accessor on analysis.Result already is).
func (s *Scenario) Analyze() (*analysis.Result, error) {
	key := fmt.Sprint(s.SrcDirs)
	analysisMu.Lock()
	e, ok := analysisCache[key]
	if !ok {
		e = &analysisEntry{}
		analysisCache[key] = e
	}
	analysisMu.Unlock()
	e.once.Do(func() {
		e.res, e.err = analysis.AnalyzePackages(s.SrcDirs)
	})
	return e.res, e.err
}

// Searches reports whether the scenario's fault classes include the named
// class (core.ClassEnv, core.ClassPair, ...).
func (s *Scenario) Searches(class string) bool {
	return slices.Contains(s.FaultClasses, class)
}

// features returns the runtime features the scenario's own runs need: those
// of its fault classes, so free runs count their pseudo-sites (FindRoot
// needs the counts).
func (s *Scenario) features() inject.Features {
	f, err := core.ClassFeatures(s.FaultClasses)
	if err != nil {
		panic(fmt.Sprintf("failures: %s: %v", s.ID, err)) // the dataset names only known classes
	}
	return f
}

// GroundTruth finds the root-cause instance under the given seed. A free
// run that panics or livelocks is a *cluster.TrialError.
func (s *Scenario) GroundTruth(seed int64) (inject.Instance, error) {
	inst, _, err := s.groundTruth(seed)
	return inst, err
}

// groundTruth is GroundTruth also returning the free run FindRoot read,
// whose environment the caller may release.
func (s *Scenario) groundTruth(seed int64) (inject.Instance, *cluster.Result, error) {
	free, err := cluster.Run(nil, nil, seed, nil, s.Workload, s.Horizon, s.features())
	if err != nil {
		return inject.Instance{}, nil, fmt.Errorf("%s: free run: %w", s.ID, err)
	}
	inst, ok := s.FindRoot(free, seed)
	if !ok {
		return inject.Instance{}, nil, fmt.Errorf("%s: ground-truth instance not found in free run", s.ID)
	}
	return inst, free, nil
}

// trial runs one candidate of a ground-truth search in env (nil: a fresh
// one) and reports whether it satisfies the scenario's oracle, with the
// environment the next trial may run in: this one's after a clean run,
// nil after one that could not be judged (a panic, a livelock), which
// does not satisfy the oracle either.
func (s *Scenario) trial(env *cluster.Env, seed int64, plan *inject.Plan, feats inject.Features) (bool, *cluster.Env) {
	res, err := cluster.Run(nil, env, seed, plan, s.Workload, s.Horizon, feats)
	if err != nil {
		return false, nil
	}
	return s.Oracle.Satisfied(res), res.Release()
}

// FailureLog produces the production failure log: one run with the
// ground-truth fault injected, in the free run's environment, rendered to
// text and parsed back. A run that panics or livelocks is a
// *cluster.TrialError.
func (s *Scenario) FailureLog() ([]logging.Entry, error) {
	inst, free, err := s.groundTruth(FailureSeed)
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(nil, free.Release(), FailureSeed, inject.Exact(inst), s.Workload, s.Horizon, s.features())
	if err != nil {
		return nil, fmt.Errorf("%s: ground-truth run: %w", s.ID, err)
	}
	if !s.Oracle.Satisfied(res) {
		return nil, fmt.Errorf("%s: ground-truth injection %v does not satisfy the oracle", s.ID, inst)
	}
	text := res.RenderLog()
	return logging.Parse(text), nil
}

// BuildTarget assembles the explorer's Target for this scenario, once per
// process: every caller — concurrent ones included — gets the same
// *core.Target. A Target is read-only by contract (see core.Target), which
// is what lets tables, daemon jobs and tests share it; a caller that wants
// a different workload or oracle copies the struct first (cp := *tgt).
func (s *Scenario) BuildTarget() (*core.Target, error) {
	s.target.once.Do(func() { s.target.t, s.target.err = s.buildTarget() })
	return s.target.t, s.target.err
}

func (s *Scenario) buildTarget() (*core.Target, error) {
	an, err := s.Analyze()
	if err != nil {
		return nil, err
	}
	flog, err := s.FailureLog()
	if err != nil {
		return nil, err
	}
	return &core.Target{
		ID:           s.ID,
		Issue:        s.Issue,
		System:       s.System,
		Description:  s.Description,
		Workload:     s.Workload,
		Horizon:      s.Horizon,
		Oracle:       s.Oracle,
		FailureLog:   flog,
		Analysis:     an,
		RootSite:     s.RootSite,
		FaultClasses: s.FaultClasses,
	}, nil
}

// registry is populated by package init functions only; after program
// initialization it is read-only, so All/ByID/BySystem are safe to call
// from any number of goroutines (the parallel evaluation harness does).
var registry []*Scenario

func register(s *Scenario) { registry = append(registry, s) }

// All returns every scenario in dataset order (f1..f22), regardless of
// package initialization order.
func All() []*Scenario {
	out := append([]*Scenario(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return scenarioNum(out[i].ID) < scenarioNum(out[j].ID) })
	return out
}

func scenarioNum(id string) int {
	n := 0
	fmt.Sscanf(id, "f%d", &n)
	return n
}

// SiteDataset returns the paper's evaluation dataset: the 22 scenarios
// rooted in error-return faults (nil FaultClasses), in dataset order.
// The env-rooted and pair-rooted scenarios are excluded so evaluation
// tables keep reproducing Table 5 unchanged.
func SiteDataset() []*Scenario {
	var out []*Scenario
	for _, s := range All() {
		if s.FaultClasses == nil {
			out = append(out, s)
		}
	}
	return out
}

// ByID returns the scenario with the given dataset or issue id.
func ByID(id string) (*Scenario, bool) {
	for _, s := range registry {
		if s.ID == id || s.Issue == id {
			return s, true
		}
	}
	return nil, false
}

// BySystem returns the scenarios targeting one system.
func BySystem(system string) []*Scenario {
	var out []*Scenario
	for _, s := range registry {
		if s.System == system {
			out = append(out, s)
		}
	}
	return out
}
