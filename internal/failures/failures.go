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
// A scenario states that fault as a concrete instance, its Root; FindRoot
// is the rule that locates it in a free run, and a test holds the stated
// instance to what the rule finds under FailureSeed.
package failures

import (
	"fmt"
	"sort"
	"sync"

	"anduril/internal/analysis"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logging"
	"anduril/internal/oracle"
	"anduril/internal/sys/dfs"
	"anduril/internal/sys/dyn"
	"anduril/internal/sys/kvstore"
	"anduril/internal/sys/mq"
	"anduril/internal/sys/tablestore"
	"anduril/internal/sys/zk"
)

// Scenario is one dataset entry: its system's row plus what its failure
// adds — a workload, an oracle, and the ground-truth root.
type Scenario struct {
	ID          string // "f1" .. "f34"
	Issue       string // upstream issue id, e.g. "ZK-2247"
	System      string // a key of systems: "zk", "dfs", "tablestore", ...
	Description string

	Workload cluster.Workload
	Horizon  des.Time // the system's; register fills it
	Oracle   oracle.Oracle
	SrcDirs  []string // the system's source, which the Instrumenter analyzes; register fills it

	// FaultClasses names the fault classes the explorer searches for this
	// scenario (core.ClassSite / core.ClassEnv / core.ClassPair /
	// core.ClassPartial). Nil keeps the paper's site-only space — the
	// f1–f22 dataset — while the env-rooted scenarios (f23+) opt into
	// environment enumeration, the combined-fault scenarios (f30–f31)
	// into pair enumeration, and the partial-failure scenarios (f32–f34)
	// into partial enumeration.
	FaultClasses []string

	// Root is the ground-truth root-cause fault instance: the fault of the
	// simulated production incident at FailureSeed, which FailureLog injects.
	Root inject.Instance
	// FindRoot locates the ground-truth dynamic instance of s.Root.Site in
	// a free run under any seed (the right occurrence); at FailureSeed it
	// must return Root. The seed of the free run is passed for scenarios
	// that must trial-inject to confirm it.
	FindRoot func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool)

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

// systems is one row per target system: its horizon. A system's source is
// internal/sys/<name>, and every scenario of the system shares both.
var systems = map[string]des.Time{
	"zk":         zk.Horizon,
	"dfs":        dfs.Horizon,
	"tablestore": tablestore.Horizon,
	"mq":         mq.Horizon,
	"kvstore":    kvstore.Horizon,
	"dyn":        dyn.Horizon,
}

func srcDirs(system string) []string { return []string{"internal/sys/" + system} }

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

// Analyze returns the (cached) static analysis of a system's source. It is
// safe for concurrent use; the returned Result is shared and must be
// treated as read-only (every accessor on analysis.Result already is).
func Analyze(system string) (*analysis.Result, error) {
	if _, ok := systems[system]; !ok {
		return nil, fmt.Errorf("failures: no system %q", system)
	}
	analysisMu.Lock()
	e, ok := analysisCache[system]
	if !ok {
		e = &analysisEntry{}
		analysisCache[system] = e
	}
	analysisMu.Unlock()
	e.once.Do(func() {
		e.res, e.err = analysis.AnalyzePackages(srcDirs(system))
	})
	return e.res, e.err
}

// features returns the runtime features the scenario's own runs need: those
// of its fault classes, so its runs count their pseudo-sites (FindRoot's
// free runs read the counts) as the explorer's do.
func (s *Scenario) features() inject.Features {
	f, err := core.ClassFeatures(s.FaultClasses)
	if err != nil {
		panic(fmt.Sprintf("failures: %s: %v", s.ID, err)) // the dataset names only known classes
	}
	return f
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
// ground-truth fault, Root, injected under FailureSeed, rendered to text and
// parsed back. A run that panics or livelocks is a *cluster.TrialError.
func (s *Scenario) FailureLog() ([]logging.Entry, error) {
	res, err := cluster.Run(nil, nil, FailureSeed, inject.Exact(s.Root), s.Workload, s.Horizon, s.features())
	if err != nil {
		return nil, fmt.Errorf("%s: ground-truth run: %w", s.ID, err)
	}
	if !s.Oracle.Satisfied(res) {
		return nil, fmt.Errorf("%s: ground-truth injection %v does not satisfy the oracle", s.ID, s.Root)
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
	an, err := Analyze(s.System)
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
		RootSite:     s.Root.Site,
		FaultClasses: s.FaultClasses,
	}, nil
}

// registry is populated by package init functions only; after program
// initialization it is read-only, so All/ByID/BySystem are safe to call
// from any number of goroutines (the parallel evaluation harness does).
var registry []*Scenario

// register adds a scenario, filling in its system's row; a system with no
// row is a dataset bug.
func register(s *Scenario) {
	h, ok := systems[s.System]
	if !ok {
		panic(fmt.Sprintf("failures: %s: no row for system %q", s.ID, s.System))
	}
	s.SrcDirs, s.Horizon = srcDirs(s.System), h
	registry = append(registry, s)
}

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
