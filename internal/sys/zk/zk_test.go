package zk

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

func logHas(r *cluster.Result, frag string) bool { return r.LogContains(frag) }

func TestQuorumWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := runFree(t, WorkloadQuorum, seed)
		if !logHas(r, "Leader is serving epoch") {
			t.Fatalf("seed %d: leader never served\n%s", seed, r.RenderLog())
		}
		if !logHas(r, "Client zk-client-1 finished workload") {
			t.Fatalf("seed %d: client did not finish\n%s", seed, r.RenderLog())
		}
		if logHas(r, "Severe unrecoverable error") {
			t.Fatalf("seed %d: spurious pipeline death", seed)
		}
	}
}

func TestElectionPicksHighestID(t *testing.T) {
	r := runFree(t, WorkloadQuorum, 3)
	if !logHas(r, "LEADING on myid=3") {
		t.Fatalf("zk3 did not lead:\n%s", r.RenderLog())
	}
	if !logHas(r, "FOLLOWING zk3 on myid=1") || !logHas(r, "FOLLOWING zk3 on myid=2") {
		t.Fatal("followers did not follow zk3")
	}
}

func TestTxnLogPersisted(t *testing.T) {
	r := runFree(t, WorkloadQuorum, 2)
	for _, node := range []string{"zk1", "zk2", "zk3"} {
		if r.Env.Disk.Size(node+"/txnlog") == 0 {
			t.Fatalf("%s has empty txn log", node)
		}
	}
}

func TestSnapshotsTaken(t *testing.T) {
	r := runFree(t, WorkloadQuorum, 2)
	if len(r.Env.Disk.List("zk1/snapshot.")) == 0 {
		t.Fatal("no snapshots on zk1")
	}
}

func TestFaultSitesExercised(t *testing.T) {
	r := runFree(t, WorkloadQuorum, 1)
	counts := r.Env.FI.Counts()
	for _, site := range []string{
		"zk.election.send-vote",
		"zk.election.accept-connection",
		"zk.leader.announce",
		"zk.follower.connect-leader",
		"zk.leader.accept-follower",
		"zk.sync.append-txn",
		"zk.sync.fsync-txnlog",
		"zk.follower.forward-request",
		"zk.leader.send-proposal",
		"zk.leader.send-commit",
		"zk.snap.write-body",
		"zk.leader.ping-follower",
	} {
		if counts[site] == 0 {
			t.Errorf("fault site %s never exercised", site)
		}
	}
}

// f1 — ZK-2247: leader txn-log write failure kills the pipeline; ensemble
// becomes unavailable.
func TestF1LeaderLogWriteFailure(t *testing.T) {
	// Occurrence 1 of the append site belongs to the leader (the leader's
	// sync processor runs before the proposals reach the followers).
	r := runWith(t, WorkloadQuorum, 1, inject.Instance{Site: "zk.sync.append-txn", Occurrence: 1})
	if !logHas(r, "Severe unrecoverable error, exiting SyncRequestProcessor on myid=3") {
		t.Fatalf("pipeline did not die on leader:\n%s", r.RenderLog())
	}
	if !logHas(r, "timed out; server unavailable") {
		t.Fatalf("client did not observe unavailability:\n%s", r.RenderLog())
	}
}

// f1 control: the same fault on a follower is tolerated.
func TestF1FollowerLogWriteFailureTolerated(t *testing.T) {
	// Occurrence 2 lands on one of the followers.
	r := runWith(t, WorkloadQuorum, 1, inject.Instance{Site: "zk.sync.append-txn", Occurrence: 2})
	if !logHas(r, "Severe unrecoverable error") {
		t.Fatalf("follower pipeline should still die:\n%s", r.RenderLog())
	}
	if logHas(r, "timed out; server unavailable") {
		t.Fatal("cluster should stay available with one dead follower pipeline")
	}
	if !logHas(r, "Client zk-client-1 finished workload") {
		t.Fatalf("client should finish:\n%s", r.RenderLog())
	}
}

// f2 — ZK-3157: a forwarding failure for a write closes the session.
func TestF2WriteForwardFailure(t *testing.T) {
	r := runWith(t, WorkloadQuorum, 1, inject.Instance{Site: "zk.follower.forward-request", Occurrence: 3})
	if !logHas(r, "Unexpected exception causing session") {
		t.Fatalf("session not closed:\n%s", r.RenderLog())
	}
	if !logHas(r, "client failed with connection loss") {
		t.Fatalf("client did not fail:\n%s", r.RenderLog())
	}
}

// f2 control: a forwarding failure for a read is retried.
func TestF2ReadForwardRetried(t *testing.T) {
	r := runWith(t, WorkloadQuorum, 1, inject.Instance{Site: "zk.follower.forward-request", Occurrence: 2})
	if !logHas(r, "Request forward to leader failed") {
		t.Fatalf("read retry path not hit:\n%s", r.RenderLog())
	}
	if logHas(r, "client failed with connection loss") {
		t.Fatal("read failure should not close the session")
	}
	if !logHas(r, "Client zk-client-1 finished workload") {
		t.Fatalf("client should finish after retry:\n%s", r.RenderLog())
	}
}

// electionReach returns the nth occurrence of the election accept site on
// the given server in the free run's trace.
func electionReach(t *testing.T, free *cluster.Result, node string) int {
	t.Helper()
	occ := 0
	for _, ev := range free.Env.FI.Trace() {
		if ev.Site == "zk.election.accept-connection" {
			occ++
			if strings.HasPrefix(ev.Thread, node+"-") {
				return occ
			}
		}
	}
	t.Fatalf("%s never received an election connection", node)
	return 0
}

// f3 — ZK-4203: the would-be leader's election connection manager dies
// while accepting a vote; every election round stalls on it forever.
func TestF3ElectionListenerDeath(t *testing.T) {
	free := runFree(t, WorkloadElection, 1)
	occ := electionReach(t, free, "zk3")
	r := runWith(t, WorkloadElection, 1, inject.Instance{Site: "zk.election.accept-connection", Occurrence: occ})
	if !logHas(r, "Exception while listening for election connections on myid=3") {
		t.Fatalf("connection manager did not die:\n%s", r.RenderLog())
	}
	if logHas(r, "Leader is serving epoch") {
		t.Fatalf("no leader should ever serve:\n%s", r.RenderLog())
	}
	if !logHas(r, "Election round timed out") {
		t.Fatal("election rounds should keep timing out")
	}
}

// f3 control: the same fault on a non-candidate server is tolerated — the
// remaining two servers still form a quorum around zk3.
func TestF3ElectionListenerDeathOnFollowerTolerated(t *testing.T) {
	free := runFree(t, WorkloadElection, 1)
	occ := electionReach(t, free, "zk1")
	r := runWith(t, WorkloadElection, 1, inject.Instance{Site: "zk.election.accept-connection", Occurrence: occ})
	if !logHas(r, "Exception while listening for election connections on myid=1") {
		t.Fatalf("zk1 connection manager should die:\n%s", r.RenderLog())
	}
	if !logHas(r, "Leader is serving epoch") {
		t.Fatalf("zk3 should still serve with zk2:\n%s", r.RenderLog())
	}
}

// f4 — ZK-3006: truncated snapshot crashes the restarted server.
func TestF4TruncatedSnapshotNPE(t *testing.T) {
	free := runFree(t, WorkloadSnapshotRestart, 1)
	// Find zk1's last snapshot body write before the restart.
	occ := 0
	last := 0
	for _, ev := range free.Env.FI.Trace() {
		if ev.Site == "zk.snap.write-body" {
			occ++
			if strings.HasPrefix(ev.Thread, "zk1-") && ev.Time < 1200*des.Millisecond {
				last = occ
			}
		}
	}
	if last == 0 {
		t.Fatal("zk1 never snapshotted")
	}
	r := runWith(t, WorkloadSnapshotRestart, 1, inject.Instance{Site: "zk.snap.write-body", Occurrence: last})
	if !logHas(r, "Error while taking snapshot") {
		t.Fatalf("snapshot error not logged:\n%s", r.RenderLog())
	}
	if !logHas(r, "NullPointerException") {
		t.Fatalf("restore did not hit the NPE:\n%s", r.RenderLog())
	}
	if !logHas(r, "Severe error starting quorum peer") {
		t.Fatalf("server should fail to start:\n%s", r.RenderLog())
	}
}

// f4 control: a truncated snapshot on a server that is NOT restarted is
// harmless within the run.
func TestF4OtherServerTolerated(t *testing.T) {
	free := runFree(t, WorkloadSnapshotRestart, 1)
	occ := 0
	target := 0
	for _, ev := range free.Env.FI.Trace() {
		if ev.Site == "zk.snap.write-body" {
			occ++
			if strings.HasPrefix(ev.Thread, "zk3-") && target == 0 {
				target = occ
			}
		}
	}
	if target == 0 {
		t.Skip("zk3 never snapshotted under this seed")
	}
	r := runWith(t, WorkloadSnapshotRestart, 1, inject.Instance{Site: "zk.snap.write-body", Occurrence: target})
	if logHas(r, "NullPointerException") {
		t.Fatalf("NPE without restarting the corrupted server:\n%s", r.RenderLog())
	}
}

// Restart without any fault must restore state cleanly.
func TestRestartRestoresState(t *testing.T) {
	r := runFree(t, WorkloadSnapshotRestart, 4)
	if logHas(r, "Unable to load database") {
		t.Fatalf("clean restart failed:\n%s", r.RenderLog())
	}
	if !logHas(r, "Reading snapshot") {
		t.Fatalf("restart did not read a snapshot:\n%s", r.RenderLog())
	}
}

func TestTxnCodecRoundTrip(t *testing.T) {
	txn := Txn{Zxid: 42, Op: "create", Path: "/a/b", Value: "hello world"}
	got, ok := decodeTxn(strings.TrimSuffix(string(appendTxnRecord(nil, txn)), "\n"))
	if !ok || got != txn {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	if _, ok := decodeTxn("garbage"); ok {
		t.Fatal("garbage decoded")
	}
	if _, ok := decodeTxn("x|y|z|w"); ok {
		t.Fatal("non-numeric zxid decoded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runFree(t, WorkloadQuorum, 7)
	b := runFree(t, WorkloadQuorum, 7)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("nondeterministic log length: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}
