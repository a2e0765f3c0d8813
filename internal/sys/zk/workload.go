package zk

import (
	"anduril/internal/cluster"
	"anduril/internal/des"
)

// Horizon is how much virtual time the zk workloads need to quiesce.
const Horizon = 3 * des.Second

// defaultOps is a small mixed read/write script, the shape of the
// "existing test" workloads the paper reuses.
func defaultOps() []Op {
	return []Op{
		{Kind: "create", Path: "/app", Value: "v0"},
		{Kind: "get", Path: "/app"},
		{Kind: "set", Path: "/app", Value: "v1"},
		{Kind: "get", Path: "/app"},
		{Kind: "create", Path: "/app/members", Value: "m0"},
		{Kind: "get", Path: "/app/members"},
		{Kind: "set", Path: "/app/members", Value: "m1"},
		{Kind: "get", Path: "/app/members"},
	}
}

// WorkloadQuorum boots a 3-server ensemble and drives a client session
// through a follower. It exercises election, forwarding, the proposal
// pipeline, txn logging and snapshots: the driving workload for f1
// (ZK-2247) and f2 (ZK-3157).
func WorkloadQuorum(env *cluster.Env) {
	c := NewCluster(env, 3)
	c.Start()
	cl := c.NewClient("zk-client-1", 1, defaultOps())
	cl.Run(250 * des.Millisecond)
}

// WorkloadElection boots the ensemble and issues a single write once the
// quorum should be up — the driving workload for f3 (ZK-4203), where the
// interesting part is whether the election ever completes.
func WorkloadElection(env *cluster.Env) {
	c := NewCluster(env, 3)
	c.Start()
	cl := c.NewClient("zk-client-1", 1, []Op{
		{Kind: "create", Path: "/lock", Value: "holder"},
		{Kind: "get", Path: "/lock"},
	})
	cl.Run(400 * des.Millisecond)
}

// WorkloadSnapshotRestart drives writes, lets periodic snapshots run, then
// restarts follower zk1 so it restores from its latest snapshot — the
// driving workload for f4 (ZK-3006).
func WorkloadSnapshotRestart(env *cluster.Env) {
	c := NewCluster(env, 3)
	c.Start()
	cl := c.NewClient("zk-client-1", 1, defaultOps())
	cl.Run(250 * des.Millisecond)
	env.Sim.Schedule("harness", 1200*des.Millisecond, func() {
		c.Restart(1)
	})
}
