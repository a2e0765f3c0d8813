package kvstore

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
)

func runFree(t *testing.T, seed int64) *cluster.Result {
	t.Helper()
	return run(t, seed, nil)
}

func runWith(t *testing.T, seed int64, inst inject.Instance) *cluster.Result {
	t.Helper()
	return run(t, seed, inject.Exact(inst))
}

// run is one trial in a fresh environment; a trial error fails the test.
func run(t *testing.T, seed int64, plan *inject.Plan) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(nil, nil, seed, plan, WorkloadRepair, Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRepairWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := runFree(t, seed)
		if !r.LogContains("Repair session repair-1 completed successfully") {
			t.Fatalf("seed %d: repair did not complete\n%s", seed, r.RenderLog())
		}
		if !r.LogContains("finished 30 quorum writes") {
			t.Fatalf("seed %d: writes did not finish", seed)
		}
		if stuck := r.Env.Sim.Blocked(); len(stuck) != 0 {
			t.Fatalf("seed %d: stuck threads: %v", seed, stuck)
		}
	}
}

// f21 — C*-17663: an interrupted file-stream task corrupts the shared
// channel proxy; streaming never succeeds again.
func TestF21CorruptProxy(t *testing.T) {
	r := runWith(t, 1, inject.Instance{Site: "cs.stream.file-task", Occurrence: 2})
	if !r.LogContains("channel proxy left in invalid state") {
		t.Fatalf("proxy not corrupted:\n%s", r.RenderLog())
	}
	if !r.LogContains("channel proxy in invalid state") {
		t.Fatalf("later streams should trip the proxy:\n%s", r.RenderLog())
	}
	if r.LogContains("completed successfully") {
		t.Fatal("repair should never complete")
	}
}

// f22 — C*-6415: a swallowed snapshot failure leaves the coordinator
// waiting forever (the request has no timeout).
func TestF22SnapshotBlocksForever(t *testing.T) {
	r := runWith(t, 1, inject.Instance{Site: "cs.repair.make-snapshot", Occurrence: 2})
	if !r.LogContains("Snapshot for repair-1 failed") {
		t.Fatalf("snapshot did not fail:\n%s", r.RenderLog())
	}
	if !r.BlockedOn("await-snapshot-responses") {
		t.Fatalf("coordinator not blocked: %v", r.Env.Sim.Blocked())
	}
	if r.LogContains("computing merkle differences") {
		t.Fatal("repair should never pass the snapshot phase")
	}
}

// f22 control: a snapshot FILE write failure also wedges (same symptom,
// deeper site) — kept as the "new root cause" counterpart (Table 6).
func TestF22SnapshotWriteAlsoWedges(t *testing.T) {
	r := runWith(t, 1, inject.Instance{Site: "cs.repair.write-snapshot", Occurrence: 1})
	if !r.BlockedOn("await-snapshot-responses") {
		t.Fatalf("coordinator not blocked: %v", r.Env.Sim.Blocked())
	}
}

func TestFaultSitesExercised(t *testing.T) {
	r := runFree(t, 1)
	counts := r.Env.FI.Counts()
	for _, site := range []string{
		"cs.gossip.send", "cs.node.append-commitlog", "cs.compaction.write-sstable",
		"cs.repair.make-snapshot", "cs.repair.write-snapshot", "cs.repair.snapshot-rpc",
		"cs.stream.file-task", "cs.stream.send-file", "cs.client.write-rpc",
	} {
		if counts[site] == 0 {
			t.Errorf("fault site %s never exercised", site)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runFree(t, 3)
	b := runFree(t, 3)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("nondeterministic: %d vs %d", len(a.Entries), len(b.Entries))
	}
}

func TestHintedHandoff(t *testing.T) {
	r := runFree(t, 1)
	if !r.LogContains("Node cs3 became unreachable") {
		t.Fatalf("down window missing:\n%s", r.RenderLog())
	}
	if !r.LogContains("Stored hint for cs3") {
		t.Fatalf("no hints stored:\n%s", r.RenderLog())
	}
	if !r.LogContains("Replayed hint to cs3") {
		t.Fatalf("hints never replayed:\n%s", r.RenderLog())
	}
	// Repair still completes despite the blip.
	if !r.LogContains("Repair session repair-1 completed successfully") {
		t.Fatalf("repair broken by the blip:\n%s", r.RenderLog())
	}
}
