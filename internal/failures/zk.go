package failures

import (
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/zk"
)

// firstOn returns the first occurrence of site executed by a thread of the
// given node.
func firstOn(free *cluster.Result, site, node string) (inject.Instance, bool) {
	for _, ev := range free.Env.FI.Trace() {
		if ev.Site == site && strings.HasPrefix(ev.Thread, node+"-") {
			return inject.Instance{Site: site, Occurrence: ev.Occurrence}, true
		}
	}
	return inject.Instance{}, false
}

// lastOnBefore returns the last occurrence of site executed by a thread of
// the given node before the virtual deadline.
func lastOnBefore(free *cluster.Result, site, node string, deadline des.Time) (inject.Instance, bool) {
	var out inject.Instance
	found := false
	for _, ev := range free.Env.FI.Trace() {
		if ev.Site == site && ev.Time < deadline && strings.HasPrefix(ev.Thread, node+"-") {
			out = inject.Instance{Site: site, Occurrence: ev.Occurrence}
			found = true
		}
	}
	return out, found
}

// nthOccurrence returns the nth occurrence of a site.
func nthOccurrence(free *cluster.Result, site string, n int) (inject.Instance, bool) {
	if free.Env.FI.Counts()[site] < n {
		return inject.Instance{}, false
	}
	return inject.Instance{Site: site, Occurrence: n}, true
}

func init() {
	register(&Scenario{
		ID:          "f1",
		Issue:       "ZK-2247",
		System:      "zk",
		Description: "Server unavailable when leader fails to write transaction log",
		Workload:    zk.WorkloadQuorum,
		Oracle: oracle.And(
			oracle.LogContains("Severe unrecoverable error, exiting SyncRequestProcessor"),
			oracle.LogContains("timed out; server unavailable"),
		),
		Root: inject.Instance{Site: "zk.sync.append-txn", Occurrence: 1},
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// The fault must hit the LEADER's sync processor; the same
			// static site on a follower is tolerated by the quorum.
			return firstOn(free, s.Root.Site, "zk3")
		},
	})

	register(&Scenario{
		ID:          "f2",
		Issue:       "ZK-3157",
		System:      "zk",
		Description: "Connection loss causes the client to fail",
		Workload:    zk.WorkloadQuorum,
		Oracle: oracle.And(
			oracle.LogContains("Unexpected exception causing session"),
			oracle.LogContains("client failed with connection loss"),
		),
		Root: inject.Instance{Site: "zk.follower.forward-request", Occurrence: 3},
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// The broken channel must carry a write; forwarded reads are
			// retried. Occurrence 3 is the first set operation.
			return nthOccurrence(free, s.Root.Site, 3)
		},
	})

	register(&Scenario{
		ID:          "f3",
		Issue:       "ZK-4203",
		System:      "zk",
		Description: "The leader election is stuck forever due to connection error",
		Workload:    zk.WorkloadElection,
		Oracle: oracle.And(
			oracle.LogContains("Exception while listening for election connections"),
			oracle.Not(oracle.LogContains("Leader is serving epoch")),
		),
		Root: inject.Instance{Site: "zk.election.accept-connection", Occurrence: 1},
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// The connection manager must die on the would-be leader (the
			// highest id) before it tallies a quorum.
			return firstOn(free, s.Root.Site, "zk3")
		},
	})

	register(&Scenario{
		ID:          "f4",
		Issue:       "ZK-3006",
		System:      "zk",
		Description: "Invalid disk file content causes null pointer exception",
		Workload:    zk.WorkloadSnapshotRestart,
		Oracle: oracle.And(
			oracle.LogContains("NullPointerException"),
			oracle.LogContains("Severe error starting quorum peer"),
		),
		Root: inject.Instance{Site: "zk.snap.write-body", Occurrence: 10},
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// The truncated snapshot must be the LAST one zk1 wrote before
			// its restart; earlier ones are superseded.
			return lastOnBefore(free, s.Root.Site, "zk1", 1200*des.Millisecond)
		},
	})
}
