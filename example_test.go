package anduril_test

import (
	"fmt"

	"anduril"
	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/sys/tablestore"
	"anduril/internal/sys/toy"
)

// ExampleReproduce reproduces a dataset failure with the default
// full-feedback explorer.
func ExampleReproduce() {
	target, err := anduril.Dataset("f22") // C*-6415: snapshot repair blocks forever
	if err != nil {
		panic(err)
	}
	report := anduril.Reproduce(target, anduril.Options{Seed: 1})
	fmt.Println("reproduced:", report.Reproduced)
	fmt.Println("root cause:", report.Script.Site)
	// Output:
	// reproduced: true
	// root cause: cs.repair.make-snapshot
}

// ExampleVerify replays a reproduction script deterministically.
func ExampleVerify() {
	target, _ := anduril.Dataset("f19") // KA-9374: blocked connectors disable the worker
	report := anduril.Reproduce(target, anduril.Options{Seed: 1})
	ok := anduril.Verify(target, *report.Script, report.ScriptSeed)
	fmt.Println("script verifies:", ok)
	// Output:
	// script verifies: true
}

// ExampleDatasetCatalog lists part of the 22-failure dataset.
func ExampleDatasetCatalog() {
	for _, info := range anduril.DatasetCatalog()[:3] {
		fmt.Printf("%s %s (%s)\n", info.ID, info.Issue, info.System)
	}
	// Output:
	// f1 ZK-2247 (zk)
	// f2 ZK-3157 (zk)
	// f3 ZK-4203 (zk)
}

// ExampleScript reproduces ZK-4203 — an I/O error kills the election
// connection manager on the would-be leader, and the election is stuck
// forever — and replays the script under the seed of the round that
// reproduced it (occurrence numbering is environment-specific, §5.2.5).
func ExampleScript() {
	target, _ := anduril.Dataset("f3")
	report := anduril.Reproduce(target, anduril.Options{Seed: 1})
	fmt.Println(anduril.Script(report))
	fmt.Println("script verifies:", anduril.Verify(target, *report.Script, report.ScriptSeed))
	// Output:
	// inject f3 at site zk.election.accept-connection, dynamic occurrence 1 (found in 1 rounds)
	// script verifies: true
}

// ExampleNewTarget walks the paper's motivating example (HB-25905, §2.1)
// end to end, assembling the target by hand the way a user would: a
// driving workload, an oracle encoding the user-visible symptoms, and a
// production failure log — here obtained by simulating the incident once.
func ExampleNewTarget() {
	// A steady put stream against one region server, the analog of HBase's
	// TestReplicationSmallTests the paper reuses.
	workload := tablestore.WorkloadWAL
	// What the user reported: a timeout warning while flushing and the log
	// roller stuck at waitForSafePoint.
	orc := anduril.OracleAnd(
		anduril.LogContains("Failed to get sync result"),
		anduril.ThreadStuck("waitForSafePoint"),
	)
	// "Production": an HDFS stream write broke at exactly the wrong moment.
	prod, err := cluster.Run(nil, nil, 9999, inject.Exact(anduril.Instance{Site: "ts.wal.stream-write", Occurrence: 12}),
		workload, tablestore.Horizon, 0)
	if err != nil {
		panic(err)
	}
	target, err := anduril.NewTarget("walstuck", workload, tablestore.Horizon,
		orc, prod.RenderLog(), []string{"internal/sys/tablestore"})
	if err != nil {
		panic(err)
	}
	report := anduril.Reproduce(target, anduril.Options{Seed: 42})
	fmt.Printf("reproduced in %d rounds out of %d candidate instances\n", report.Rounds, report.CandidateInstances)
	fmt.Println(anduril.Script(report))
	// Timing matters: the same site at occurrence 1 only rolls the stream,
	// and the WAL recovers.
	early := anduril.Instance{Site: report.Script.Site, Occurrence: 1}
	fmt.Println("occurrence 1 reproduces:", anduril.Verify(target, early, 4242))
	// Output:
	// reproduced in 1 rounds out of 396 candidate instances
	// inject walstuck at site ts.wal.stream-write, dynamic occurrence 12 (found in 1 rounds)
	// occurrence 1 reproduces: false
}

// ExampleReproduce_pairClass reproduces a failure caused by two
// causally-independent faults — beyond the paper's single-fault scope (§6
// limitation 2): the toy service dies only when a store-scrub fault leaves
// it degraded and a peer-ping flake hits inside the degraded window. The
// single-fault search exhausts its space, twice over — every instance gets
// a second trial under a fresh seed before the search gives up. With the
// pair class enabled the search runs those same 34 rounds first, then its
// pair rounds arm two faults together.
func ExampleReproduce_pairClass() {
	orc := anduril.LogContains("service entered unrecoverable state")
	prod, err := cluster.Run(nil, nil, 9999, inject.Exact(
		anduril.Instance{Site: "toy.scrub-store", Occurrence: 2},
		anduril.Instance{Site: "toy.ping-peer", Occurrence: 2},
	), toy.Workload, toy.Horizon, 0)
	if err != nil {
		panic(err)
	}
	target, err := anduril.NewTarget("toy-two-fault", toy.Workload, toy.Horizon,
		orc, prod.RenderLog(), []string{"internal/sys/toy"})
	if err != nil {
		panic(err)
	}
	single := anduril.Reproduce(target, anduril.Options{Seed: 1, MaxRounds: 100})
	fmt.Printf("single-fault search: reproduced=%v after %d rounds\n", single.Reproduced, single.Rounds)
	fmt.Printf("best partial fault: %s#%d\n", single.BestPartial.Site, single.BestPartial.Occurrence)
	pair := anduril.Reproduce(target, anduril.Options{Seed: 1, MaxRounds: 100,
		FaultClasses: []string{anduril.ClassSite, anduril.ClassPair}})
	fmt.Println(anduril.Script(pair))
	// Output:
	// single-fault search: reproduced=false after 34 rounds
	// best partial fault: toy.scrub-store#4
	// inject toy-two-fault as a fault pair: toy.ping-peer#6 and toy.scrub-store#7 (found in 49 rounds)
}

// ExampleReproduce_strategy runs a comparison baseline instead of the full
// feedback algorithm.
func ExampleReproduce_strategy() {
	target, _ := anduril.Dataset("f16") // HB-16144: orphaned replication-queue lock
	report := anduril.Reproduce(target, anduril.Options{
		Strategy:  anduril.CrashTuner,
		Seed:      1,
		MaxRounds: 100,
	})
	fmt.Println("crashtuner reproduced:", report.Reproduced)
	// Output:
	// crashtuner reproduced: false
}
