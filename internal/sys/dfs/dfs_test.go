package dfs

import (
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
)

func runFree(t *testing.T, w cluster.Workload, seed int64) *cluster.Result {
	t.Helper()
	return run(t, w, seed, nil)
}

func runWith(t *testing.T, w cluster.Workload, seed int64, inst inject.Instance) *cluster.Result {
	t.Helper()
	return run(t, w, seed, inject.Exact(inst))
}

// run is one trial in a fresh environment; a trial error fails the test.
func run(t *testing.T, w cluster.Workload, seed int64, plan *inject.Plan) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(nil, nil, seed, plan, w, Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := runFree(t, WorkloadWrite, seed)
		for _, path := range []string{"/user/app/part-0", "/user/app/part-1", "/user/app/part-2", "/user/app/part-3"} {
			if !r.LogContains("closed " + path) {
				t.Fatalf("seed %d: %s not closed\n%s", seed, path, r.RenderLog())
			}
		}
		if !r.LogContains("Lease recovered, file closed: /user/tmp/staging") {
			t.Fatalf("seed %d: abandoned file not recovered\n%s", seed, r.RenderLog())
		}
		if r.LogContains("Failed to build pipeline") {
			t.Fatalf("seed %d: spurious pipeline failure", seed)
		}
	}
}

func TestCheckpointWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := runFree(t, WorkloadCheckpoint, seed)
		if !r.LogContains("Checkpoint finished") {
			t.Fatalf("seed %d: no checkpoint finished\n%s", seed, r.RenderLog())
		}
		if !r.LogContains("Installed new fsimage from checkpoint") {
			t.Fatalf("seed %d: no image installed\n%s", seed, r.RenderLog())
		}
		if r.LogContains("Skipping checkpoint") {
			t.Fatalf("seed %d: spurious checkpoint skip", seed)
		}
	}
}

func TestReadWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := runFree(t, WorkloadRead, seed)
		if !r.LogContains("finished reading /user/data/events") {
			t.Fatalf("seed %d: read did not finish\n%s", seed, r.RenderLog())
		}
		if r.LogContains("slow read detected") {
			t.Fatalf("seed %d: spurious slow read", seed)
		}
		// The expired token path must be exercised (renewal happens).
		if !r.LogContains("Invalid block token") {
			t.Fatalf("seed %d: token expiry path never exercised\n%s", seed, r.RenderLog())
		}
	}
}

func TestStartupAndBalancerHealthy(t *testing.T) {
	r := runFree(t, WorkloadStartup, 1)
	for _, dn := range []string{"dn1", "dn2", "dn3"} {
		if !r.LogContains("DataNode " + dn + " started") {
			t.Fatalf("%s did not start\n%s", dn, r.RenderLog())
		}
	}
	rb := runFree(t, WorkloadBalancer, 1)
	if rb.LogContains("Balancer terminated") {
		t.Fatal("balancer crashed without fault")
	}
	if !rb.LogContains("Serving block distribution") && !rb.LogContains("cluster balanced") && !rb.LogContains("moved a block") {
		t.Fatalf("balancer never iterated\n%s", rb.RenderLog())
	}
}

// f5 — HD-4233: failed edit-log roll latches checkpointBusy forever.
func TestF5RollEditsFailure(t *testing.T) {
	r := runWith(t, WorkloadCheckpoint, 1, inject.Instance{Site: "dfs.namenode.read-edits", Occurrence: 1})
	if !r.LogContains("Failed to roll edit log") {
		t.Fatalf("roll did not fail:\n%s", r.RenderLog())
	}
	if !r.LogContains("Skipping checkpoint: another checkpoint is in progress") {
		t.Fatalf("subsequent checkpoints not blocked:\n%s", r.RenderLog())
	}
	// The namenode must keep serving (that is the insidious part).
	if !r.LogContains("closed with") {
		t.Fatalf("namenode stopped serving:\n%s", r.RenderLog())
	}
}

// f6 — HD-12248: failed image transfer is ignored; checkpoint finalizes
// without a new image and discards the rolled edits.
func TestF6ImageTransferFailure(t *testing.T) {
	r := runWith(t, WorkloadCheckpoint, 1, inject.Instance{Site: "dfs.secondary.upload-image", Occurrence: 1})
	if !r.LogContains("Exception during image transfer") {
		t.Fatalf("transfer did not fail:\n%s", r.RenderLog())
	}
	if !r.LogContains("Checkpoint finished") {
		t.Fatalf("checkpoint should still finalize (the bug):\n%s", r.RenderLog())
	}
}

// f7 — HD-12070: failed block recovery leaves the file open forever.
func TestF7BlockRecoveryFailure(t *testing.T) {
	r := runWith(t, WorkloadWrite, 1, inject.Instance{Site: "dfs.datanode.recover-finalize", Occurrence: 1})
	if !r.LogContains("Block recovery failed for /user/tmp/staging") {
		t.Fatalf("recovery did not fail:\n%s", r.RenderLog())
	}
	if r.LogContains("Lease recovered, file closed") {
		t.Fatal("file should never be closed (the bug)")
	}
}

// f8 — HD-13039: a pipeline-connect failure leaks an xceiver; later
// concurrent transfers exhaust the pool.
func TestF8XceiverLeak(t *testing.T) {
	free := runFree(t, WorkloadWrite, 1)
	n := free.Env.FI.Counts()["dfs.datanode.connect-downstream"]
	if n == 0 {
		t.Fatal("connect-downstream never exercised")
	}
	reproduced := false
	for occ := 1; occ <= n; occ++ {
		r := runWith(t, WorkloadWrite, 1, inject.Instance{Site: "dfs.datanode.connect-downstream", Occurrence: occ})
		if r.LogContains("Failed to build pipeline") && r.LogContains("Xceiver pool exhausted") {
			reproduced = true
			t.Logf("occurrence %d exhausts the pool", occ)
			break
		}
	}
	if !reproduced {
		t.Fatal("no occurrence of the leak exhausted the xceiver pool")
	}
}

// f9 — HD-16332: one failed token refetch locks the client into stale
// retries; the read completes but pathologically slowly.
func TestF9SlowRead(t *testing.T) {
	r := runWith(t, WorkloadRead, 1, inject.Instance{Site: "dfs.client.refetch-token", Occurrence: 1})
	if !r.LogContains("retrying with stale token") {
		t.Fatalf("refetch did not fail:\n%s", r.RenderLog())
	}
	if !r.LogContains("slow read detected") {
		t.Fatalf("read was not slow:\n%s", r.RenderLog())
	}
	if !r.LogContains("finished reading /user/data/events") {
		t.Fatalf("read should eventually finish:\n%s", r.RenderLog())
	}
}

// f10 — HD-14333: a storage-directory error during startup registration
// kills the datanode; the same error during periodic refresh is tolerated.
func TestF10StartupVolumeFailure(t *testing.T) {
	r := runWith(t, WorkloadStartup, 1, inject.Instance{Site: "dfs.datanode.init-storage", Occurrence: 1})
	if !r.LogContains("Failed to add storage directory") {
		t.Fatalf("volume init did not fail:\n%s", r.RenderLog())
	}
	if !r.LogContains("failed to start: no valid volumes") {
		t.Fatalf("datanode did not abort:\n%s", r.RenderLog())
	}
}

func TestF10RefreshTolerated(t *testing.T) {
	free := runFree(t, WorkloadStartup, 1)
	// Find an occurrence executed by a volume-check thread (post-startup).
	occ := 0
	target := 0
	for _, ev := range free.Env.FI.Trace() {
		if ev.Site == "dfs.datanode.init-storage" {
			occ++
			if strings.Contains(ev.Thread, "volume-check") && target == 0 {
				target = occ
			}
		}
	}
	if target == 0 {
		t.Fatal("no volume-check occurrence found")
	}
	r := runWith(t, WorkloadStartup, 1, inject.Instance{Site: "dfs.datanode.init-storage", Occurrence: target})
	if !r.LogContains("Volume refresh failed") {
		t.Fatalf("refresh path not hit:\n%s", r.RenderLog())
	}
	if r.LogContains("failed to start: no valid volumes") {
		t.Fatal("refresh failure should not kill the datanode")
	}
}

// f11 — HD-15032: a socket error fetching the block distribution crashes
// the balancer.
func TestF11BalancerCrash(t *testing.T) {
	r := runWith(t, WorkloadBalancer, 1, inject.Instance{Site: "dfs.balancer.get-blocks", Occurrence: 2})
	if !r.LogContains("Unhandled exception in balancer") {
		t.Fatalf("balancer did not crash:\n%s", r.RenderLog())
	}
	if !r.LogContains("Balancer terminated") {
		t.Fatalf("balancer did not terminate:\n%s", r.RenderLog())
	}
}

// f11 control: a block-move failure is retried, not fatal.
func TestF11MoveTolerated(t *testing.T) {
	free := runFree(t, WorkloadBalancer, 1)
	if free.Env.FI.Counts()["dfs.balancer.move-rpc"] == 0 {
		t.Skip("no block moves under this seed")
	}
	r := runWith(t, WorkloadBalancer, 1, inject.Instance{Site: "dfs.balancer.move-rpc", Occurrence: 1})
	if r.LogContains("Balancer terminated") {
		t.Fatal("move failure should not terminate the balancer")
	}
}

func TestFaultSitesExercised(t *testing.T) {
	sites := map[string]bool{}
	for _, w := range []cluster.Workload{WorkloadWrite, WorkloadCheckpoint, WorkloadRead, WorkloadStartup, WorkloadBalancer} {
		r := runFree(t, w, 1)
		for s, n := range r.Env.FI.Counts() {
			if n > 0 {
				sites[s] = true
			}
		}
	}
	for _, site := range []string{
		"dfs.namenode.append-edits", "dfs.namenode.read-edits",
		"dfs.datanode.init-storage", "dfs.datanode.connect-downstream",
		"dfs.datanode.write-replica", "dfs.datanode.recover-finalize",
		"dfs.secondary.upload-image", "dfs.balancer.get-blocks",
		"dfs.client.refetch-token", "dfs.client.writeblock-rpc",
	} {
		if !sites[site] {
			t.Errorf("fault site %s never exercised", site)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runFree(t, WorkloadWrite, 7)
	b := runFree(t, WorkloadWrite, 7)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("nondeterministic: %d vs %d entries", len(a.Entries), len(b.Entries))
	}
	_ = des.Second
}
