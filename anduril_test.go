package anduril

import (
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/sys/zk"
)

func TestDatasetLookup(t *testing.T) {
	ids := DatasetIDs()
	if len(ids) != 34 {
		t.Fatalf("dataset size: %d", len(ids))
	}
	if ids[0] != "f1" || ids[21] != "f22" || ids[24] != "f25" || ids[30] != "f31" || ids[33] != "f34" {
		t.Fatalf("dataset order: %v", ids)
	}
	if _, err := Dataset("f17"); err != nil {
		t.Fatal(err)
	}
	if _, err := Dataset("HB-25905"); err != nil {
		t.Fatal(err)
	}
	if _, err := Dataset("f99"); err == nil {
		t.Fatal("bogus id accepted")
	}
}

func TestDatasetCatalog(t *testing.T) {
	cat := DatasetCatalog()
	if len(cat) != 34 {
		t.Fatalf("catalog size: %d", len(cat))
	}
	systems := map[string]int{}
	for _, c := range cat {
		systems[c.System]++
		if c.Description == "" || c.Issue == "" {
			t.Fatalf("incomplete entry: %+v", c)
		}
	}
	// The paper's 22 site-rooted failures plus the three env-rooted ones
	// (f23 zk, f24 mq, f25 dfs), the four dyn anti-entropy ones, the two
	// combined-fault ones (f30 dyn, f31 dfs), and the three
	// partial-failure ones (f32 dfs, f33 zk, f34 mq).
	want := map[string]int{"zk": 6, "dfs": 10, "tablestore": 6, "mq": 5, "kvstore": 2, "dyn": 5}
	for sys, n := range want {
		if systems[sys] != n {
			t.Errorf("%s: %d scenarios, want %d", sys, systems[sys], n)
		}
	}
}

func TestReproduceAndVerify(t *testing.T) {
	target, err := Dataset("f1")
	if err != nil {
		t.Fatal(err)
	}
	report := Reproduce(target, Options{Seed: 1})
	if !report.Reproduced {
		t.Fatalf("f1 not reproduced in %d rounds", report.Rounds)
	}
	if !Verify(target, *report.Script, report.ScriptSeed) {
		t.Fatal("script does not verify")
	}
	s := Script(report)
	if !strings.Contains(s, report.Script.Site) {
		t.Fatalf("script rendering: %q", s)
	}
}

func TestScriptWithoutReproduction(t *testing.T) {
	if s := Script(&Report{}); !strings.Contains(s, "not reproduced") {
		t.Fatalf("script: %q", s)
	}
	if s := Script(nil); !strings.Contains(s, "not reproduced") {
		t.Fatalf("nil script: %q", s)
	}
}

func TestNewTargetCustom(t *testing.T) {
	// Build a custom target the way ExampleNewTarget does, against the zk
	// quorum workload and the f1 bug.
	orc := OracleAnd(
		LogContains("Severe unrecoverable error, exiting SyncRequestProcessor"),
		LogContains("timed out; server unavailable"),
	)
	prod, err := cluster.Run(nil, nil, 555,
		inject.Exact(inject.Instance{Site: "zk.sync.append-txn", Occurrence: 1}),
		zk.WorkloadQuorum, zk.Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !orc.Satisfied(prod) {
		t.Fatal("production incident not triggered")
	}
	target, err := NewTarget("custom-f1", zk.WorkloadQuorum, zk.Horizon, orc, prod.RenderLog(), []string{"internal/sys/zk"})
	if err != nil {
		t.Fatal(err)
	}
	report := Reproduce(target, Options{Seed: 2})
	if !report.Reproduced {
		t.Fatalf("custom target not reproduced in %d rounds", report.Rounds)
	}
	if report.Script.Site != "zk.sync.append-txn" {
		t.Fatalf("found %v, want zk.sync.append-txn", report.Script)
	}
}

func TestStrategiesExported(t *testing.T) {
	all := []Strategy{FullFeedback, Exhaustive, SiteDistance, SiteDistanceLimit,
		SiteFeedback, MultiplyFeedback, FATE, CrashTuner, StackTrace, Random}
	seen := map[Strategy]bool{}
	for _, s := range all {
		if s == "" || seen[s] {
			t.Fatalf("bad strategy constant %q", s)
		}
		seen[s] = true
	}
}
