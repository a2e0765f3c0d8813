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
// one (§8): the ground-truth fault is replayed once by core.Replay (workflow
// step 4.a) under a seed disjoint from the explorer's, and the resulting
// log is rendered to text and parsed back — so the explorer only ever sees
// what a production log file carries. A scenario states that fault as a
// concrete instance, its Root; FindRoot is the rule that locates it in a
// free run (nil: Root's occurrence of Root's site), judging candidates with
// core.Verify, and a test holds the stated instance to what the rule finds
// under FailureSeed. The package runs nothing itself: every run is core's.
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
	"anduril/internal/sys/dfs"
	"anduril/internal/sys/dyn"
	"anduril/internal/sys/kvstore"
	"anduril/internal/sys/mq"
	"anduril/internal/sys/tablestore"
	"anduril/internal/sys/zk"
)

// Scenario is one dataset entry: the explorer's Target minus what
// BuildTarget derives (FailureLog, Analysis), plus the rule that locates
// the ground-truth root. register fills Target.Horizon and SrcDirs from
// the system's row.
type Scenario struct {
	core.Target

	SrcDirs []string // the system's source, which the Instrumenter analyzes

	// FindRoot locates the ground-truth dynamic instance of s.Root.Site in
	// a free run under any seed (the right occurrence); at FailureSeed it
	// must return Root. The seed of the free run is passed for scenarios
	// that must trial-inject to confirm it. Nil means Root's occurrence.
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

// analyses is one memo per system row: its static analysis, computed on
// first use. Calls for different systems proceed in parallel; calls for
// the same system share one computation.
var analyses = func() map[string]func() (*analysis.Result, error) {
	m := make(map[string]func() (*analysis.Result, error), len(systems))
	for name := range systems {
		m[name] = sync.OnceValues(func() (*analysis.Result, error) { return analysis.AnalyzePackages(srcDirs(name)) })
	}
	return m
}()

// Analyze returns the (cached) static analysis of a system's source. It is
// safe for concurrent use; the returned Result is shared and must be
// treated as read-only (every accessor on analysis.Result already is).
func Analyze(system string) (*analysis.Result, error) {
	a, ok := analyses[system]
	if !ok {
		return nil, fmt.Errorf("failures: no system %q", system)
	}
	return a()
}

// findRoot is FindRoot, or, when FindRoot is nil, Root itself if the free
// run reaches Root's occurrence of its site.
func (s *Scenario) findRoot(free *cluster.Result, seed int64) (inject.Instance, bool) {
	if s.FindRoot != nil {
		return s.FindRoot(s, free, seed)
	}
	if free.Env.FI.Counts()[s.Root.Site] < s.Root.Occurrence {
		return inject.Instance{}, false
	}
	return s.Root, true
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

// buildTarget produces the production failure log — one core.Replay of
// Root under FailureSeed, rendered to text and parsed back — and adds the
// system's analysis. A log run that panics or livelocks is a
// *cluster.TrialError.
func (s *Scenario) buildTarget() (*core.Target, error) {
	res, sat, err := core.Replay(&s.Target, FailureSeed, s.Root)
	if err != nil {
		return nil, fmt.Errorf("%s: ground-truth run: %w", s.ID, err)
	}
	if !sat {
		return nil, fmt.Errorf("%s: ground-truth injection %v does not satisfy the oracle", s.ID, s.Root)
	}
	an, err := Analyze(s.System)
	if err != nil {
		return nil, err
	}
	t := s.Target
	t.FailureLog, t.Analysis = logging.Parse(res.RenderLog()), an
	return &t, nil
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

// All returns every scenario in dataset order (f1–f34), regardless of
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

// SiteDataset returns the paper's evaluation dataset, f1–f22: the
// scenarios mirroring Table 5's issues, in dataset order. The failures
// beyond it, f23–f34, follow it in All.
func SiteDataset() []*Scenario {
	return slices.DeleteFunc(All(), func(s *Scenario) bool { return scenarioNum(s.ID) > 22 })
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
