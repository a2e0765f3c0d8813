// Package anduril is a Go reproduction of ANDURIL (SOSP 2024): a fault
// injection tool that efficiently reproduces a specific fault-induced
// failure in a distributed system, rather than hunting for new bugs.
//
// Given the four inputs of the paper's problem statement — the target
// system's code, a production failure log, a driving workload, and a
// failure oracle — Reproduce searches the space of (fault site, dynamic
// occurrence) pairs for a root-cause fault whose injection satisfies the
// oracle, using a static causal graph plus feedback from each unsuccessful
// injection round.
//
// The package is a facade over the building blocks in internal/: the
// discrete-event simulation substrate, the five miniature target systems,
// the static analyzer, and the explorer. A minimal session looks like:
//
//	target, _ := anduril.Dataset("f17") // HB-25905, the paper's motivating example
//	report := anduril.Reproduce(target, anduril.Options{Seed: 1})
//	if report.Reproduced {
//		fmt.Println(anduril.Script(report)) // deterministic reproduction plan
//	}
//
// Custom targets are assembled with NewTarget from any workload, oracle
// and failure log produced against the simulated cluster substrate.
package anduril

import (
	"fmt"

	"anduril/internal/analysis"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/logging"
	"anduril/internal/oracle"
)

// Target aliases the explorer's target: one failure-reproduction problem.
type Target = core.Target

// Options aliases the explorer's options.
type Options = core.Options

// Report aliases the explorer's reproduction report.
type Report = core.Report

// Strategy selects the exploration algorithm.
type Strategy = core.Strategy

// Oracle is a failure oracle (see the oracle helpers re-exported below).
type Oracle = oracle.Oracle

// Workload drives the simulated system for one round.
type Workload = cluster.Workload

// Instance names a dynamic fault candidate: site and occurrence.
type Instance = inject.Instance

// Exploration strategies: FullFeedback is complete ANDURIL; the rest are
// the paper's ablation variants (§8.3) and comparison baselines (§8.4).
const (
	FullFeedback      = core.FullFeedback
	Exhaustive        = core.Exhaustive
	SiteDistance      = core.SiteDistance
	SiteDistanceLimit = core.SiteDistanceLimit
	SiteFeedback      = core.SiteFeedback
	MultiplyFeedback  = core.MultiplyFeedback
	FATE              = core.FATE
	CrashTuner        = core.CrashTuner
	StackTrace        = core.StackTrace
	Random            = core.Random
)

// Fault classes for Options.FaultClasses / Target.FaultClasses: error-return
// sites (the paper's space), environment faults (crash/restart,
// partition/heal, message drop/delay), combined-fault pairs (site×site
// and site×env, for failures no single fault triggers), and partial
// failures (short writes, mid-append ENOSPC, torn renames, duplicated
// deliveries, interrupted sends — errno-level faults that leave state a
// clean all-or-nothing fault cannot).
const (
	ClassSite    = core.ClassSite
	ClassEnv     = core.ClassEnv
	ClassPair    = core.ClassPair
	ClassPartial = core.ClassPartial
)

// Addressing selects how injection plans name dynamic fault instances:
// AddrOccurrence (the paper's per-site global reach counter, the default)
// or AddrPath (distributed execution indexing — an instance is named by
// its canonical call path like "client.put>coord.write[2]>store.persist#1",
// which stays pinned to the same logical point across interleavings).
type Addressing = core.Addressing

// Addressing modes for Options.Addressing.
const (
	AddrOccurrence = core.AddrOccurrence
	AddrPath       = core.AddrPath
)

// Strategies lists Table 2's strategies in column order: complete
// ANDURIL, the §8.3 ablations, the §8.4 baselines.
func Strategies() []Strategy { return core.Strategies() }

// Reproduce runs the explorer until the oracle is satisfied, the fault
// space is exhausted, or the round cap is hit (workflow steps 1–5 of §3).
func Reproduce(t *Target, opts Options) *Report {
	return core.Reproduce(t, opts)
}

// Verify deterministically replays a reproduction script and reports
// whether the oracle is satisfied.
func Verify(t *Target, script Instance, seed int64) bool {
	return core.Verify(t, script, seed)
}

// Script renders a report's deterministic reproduction plan (step 4.a).
// Combined-fault scripts list both member faults; path-addressed scripts
// show the canonical call path instead of the bare occurrence counter.
func Script(r *Report) string {
	if r == nil || !r.Reproduced || r.Script == nil {
		return "no reproduction script: the failure was not reproduced"
	}
	if a, b, ok := inject.PairMembers(*r.Script); ok {
		return fmt.Sprintf("inject %s as a fault pair: %s and %s (found in %d rounds)",
			r.Target, memberRef(a), memberRef(b), r.Rounds)
	}
	if r.Script.Path != "" {
		return fmt.Sprintf("inject %s at path %s (found in %d rounds)",
			r.Target, r.Script.Path, r.Rounds)
	}
	return fmt.Sprintf("inject %s at site %s, dynamic occurrence %d (found in %d rounds)",
		r.Target, r.Script.Site, r.Script.Occurrence, r.Rounds)
}

// memberRef renders one pair member for Script.
func memberRef(m Instance) string {
	if m.Path != "" {
		return m.Path
	}
	return fmt.Sprintf("%s#%d", m.Site, m.Occurrence)
}

// Dataset returns one of the dataset failures (f1..f22 mirror the paper's
// 22 real-world issues; f23..f25 are env-rooted — crash, partition,
// message delay; f26..f29 are anti-entropy failures of the Dynamo-style
// dyn target; f30..f31 are combined-fault failures that reproduce only
// under a pair of faults; f32..f34 are partial-failure failures — torn
// rename, short write, duplicated delivery — that no clean fault
// reproduces) by id or issue id like "HB-25905", as a ready-to-reproduce
// target.
func Dataset(id string) (*Target, error) {
	s, ok := failures.ByID(id)
	if !ok {
		return nil, fmt.Errorf("anduril: no dataset failure %q", id)
	}
	return s.BuildTarget()
}

// DatasetIDs lists the dataset failures in order.
func DatasetIDs() []string {
	var out []string
	for _, s := range failures.All() {
		out = append(out, s.ID)
	}
	return out
}

// DatasetInfo describes one dataset entry.
type DatasetInfo struct {
	ID          string
	Issue       string
	System      string
	Description string
}

// DatasetCatalog lists id, issue, system and description for every entry.
func DatasetCatalog() []DatasetInfo {
	var out []DatasetInfo
	for _, s := range failures.All() {
		out = append(out, DatasetInfo{ID: s.ID, Issue: s.Issue, System: s.System, Description: s.Description})
	}
	return out
}

// NewTarget assembles a custom reproduction target from user-provided
// parts. srcDirs are the Go source directories of the target system (for
// the static causal graph); failureLogText is the production log text.
func NewTarget(id string, workload Workload, horizon des.Time, orc Oracle, failureLogText string, srcDirs []string) (*Target, error) {
	an, err := analysis.AnalyzePackages(srcDirs)
	if err != nil {
		return nil, err
	}
	return &Target{
		ID:         id,
		Workload:   workload,
		Horizon:    horizon,
		Oracle:     orc,
		FailureLog: logging.Parse(failureLogText),
		Analysis:   an,
	}, nil
}

// Oracle helpers, re-exported for building custom targets.
var (
	LogContains      = oracle.LogContains
	LogContainsExact = oracle.LogContainsExact
	ThreadStuck      = oracle.ThreadStuck
	FileMissing      = oracle.FileMissing
	FileExists       = oracle.FileExists
	OracleAnd        = oracle.And
	OracleOr         = oracle.Or
	OracleNot        = oracle.Not
)
