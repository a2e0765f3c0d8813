package core

// White-box tests for the strategy table and the baseline strategies'
// candidate enumerations.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

// stubEngineWithFree is the stub engine after a fabricated free run with
// fixed per-site counts — all the baseline queue builders read of it.
func stubEngineWithFree(counts map[string]int) *engine {
	env := cluster.NewEnv(1, nil)
	for site, n := range counts {
		for range n {
			env.FI.Reach(site, inject.IO)
		}
	}
	e := stubEngine(Options{})
	e.freeRes = &cluster.Result{Env: env}
	return e
}

// TestStrategiesAreTable2Columns: the table IS the strategy list — Table 2's
// columns in order, then the §5.2.4 design-choice rows, every name
// resolving to its own row, and the whole list is what Options.Validate
// prints for an unknown name.
func TestStrategiesAreTable2Columns(t *testing.T) {
	table2 := []Strategy{
		FullFeedback, Exhaustive, SiteDistance, SiteDistanceLimit, SiteFeedback,
		MultiplyFeedback, FATE, CrashTuner, StackTrace, Random,
	}
	if got := Strategies(); !slices.Equal(got, table2) {
		t.Fatalf("Strategies() = %v, want Table 2 column order %v", got, table2)
	}
	all := append(slices.Clone(table2), SumAggregation, TemporalByOrder, FixedWindow, GlobalDiff)
	if got := AllStrategies(); !slices.Equal(got, all) {
		t.Fatalf("AllStrategies() = %v, want %v", got, all)
	}
	for _, name := range all {
		if row, err := strategyByName(name); err != nil || row.name != name {
			t.Fatalf("strategyByName(%q) = %+v, %v", name, row, err)
		}
	}
	err := Options{Strategy: "bogus", MaxRounds: 1, Window: 1, Adjust: 1}.Validate()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(all)) {
		t.Fatalf("Validate() = %v, want the unknown-strategy error listing %v", err, all)
	}
}

func TestExhaustiveQueueOrder(t *testing.T) {
	q := exhaustiveQueue(stubEngine(Options{}))
	// 6 sites x 3 instances, sites in sorted order, occurrences ascending.
	if len(q) != 18 {
		t.Fatalf("queue length: %d", len(q))
	}
	if q[0].Site > q[3].Site {
		t.Fatal("sites not in sorted order")
	}
	for i := 0; i < 3; i++ {
		if q[i].Occurrence != i+1 {
			t.Fatalf("occurrence order: %+v", q[:3])
		}
	}
}

func TestFATEQueueBreadthFirst(t *testing.T) {
	e := stubEngineWithFree(map[string]int{"a.x": 3, "b.y": 1, "c.z": 2})
	q := fateQueue(e)
	// Pass 1: a.x#1 b.y#1 c.z#1; pass 2: a.x#2 c.z#2; pass 3: a.x#3.
	want := []inject.Instance{
		{Site: "a.x", Occurrence: 1}, {Site: "b.y", Occurrence: 1}, {Site: "c.z", Occurrence: 1},
		{Site: "a.x", Occurrence: 2}, {Site: "c.z", Occurrence: 2},
		{Site: "a.x", Occurrence: 3},
	}
	if len(q) != len(want) {
		t.Fatalf("queue: %v", q)
	}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q[%d]=%v, want %v", i, q[i], want[i])
		}
	}
}

func TestCrashTunerQueueFiltersMetaInfo(t *testing.T) {
	e := stubEngineWithFree(map[string]int{
		"zk.election.accept": 5,
		"zk.data.write":      9,
		"dfs.lease.renew":    2,
	})
	q := crashTunerQueue(e)
	for _, inst := range q {
		if inst.Site == "zk.data.write" {
			t.Fatalf("non-meta-info site in queue: %v", q)
		}
	}
	seen := map[string]bool{}
	for _, inst := range q {
		seen[inst.Site] = true
	}
	if !seen["zk.election.accept"] || !seen["dfs.lease.renew"] {
		t.Fatalf("meta-info sites missing: %v", q)
	}
}

func TestStackTraceQueueUsesFailureLog(t *testing.T) {
	e := stubEngineWithFree(map[string]int{"a.hot": 3, "b.cold": 4})
	e.t.FailureLog = []logging.Entry{
		{Thread: "w", Level: logging.Error, Msg: "IOError at a.hot during sync"},
		{Thread: "w", Level: logging.Info, Msg: "unrelated message"},
	}
	q := stackTraceQueue(e)
	if len(q) != 3 {
		t.Fatalf("queue: %v", q)
	}
	for _, inst := range q {
		if inst.Site != "a.hot" {
			t.Fatalf("unmentioned site in queue: %v", q)
		}
	}
}

func TestStackTraceQueueInterleavesSites(t *testing.T) {
	e := stubEngineWithFree(map[string]int{"a.one": 2, "b.two": 2})
	e.t.FailureLog = []logging.Entry{
		{Thread: "w", Msg: "faults at a.one and b.two observed"},
	}
	q := stackTraceQueue(e)
	// Occurrence-major interleave: a#1 b#1 a#2 b#2.
	if len(q) != 4 || q[0].Occurrence != 1 || q[1].Occurrence != 1 || q[2].Occurrence != 2 {
		t.Fatalf("queue: %v", q)
	}
}

func TestRandomQueueIsPermutation(t *testing.T) {
	e := stubEngineWithFree(map[string]int{"a.x": 2, "b.y": 3})
	q := randomQueue(e)
	if len(q) != 5 {
		t.Fatalf("queue: %v", q)
	}
	seen := map[inject.Instance]bool{}
	for _, inst := range q {
		if seen[inst] {
			t.Fatalf("duplicate: %v", inst)
		}
		seen[inst] = true
	}
	// Deterministic given the seed.
	q2 := randomQueue(e)
	for i := range q {
		if q[i] != q2[i] {
			t.Fatal("random queue not seed-deterministic")
		}
	}
}

func TestMetaInfoTokensLowercase(t *testing.T) {
	for _, tok := range metaInfoTokens {
		if tok != strings.ToLower(tok) {
			t.Fatalf("token %q not lowercase", tok)
		}
	}
}
