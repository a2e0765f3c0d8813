package dfs

import (
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
)

// Horizon is how much virtual time the dfs workloads need to quiesce.
const Horizon = 3 * des.Second

// WorkloadWrite drives two concurrent writer clients plus one abandoned
// write, exercising pipelines, the xceiver pool and lease recovery — the
// driving workload for f7 (HD-12070) and f8 (HD-13039).
func WorkloadWrite(env *cluster.Env) {
	c := NewCluster(env, Options{DataNodes: 3, XceiverLimit: 2})
	c.Start()
	cl1 := c.NewClient("dfs-client-1")
	cl2 := c.NewClient("dfs-client-2")
	env.Sim.Schedule("dfs-client-1", 200*des.Millisecond, func() {
		cl1.WriteFile("/user/app/part-0", 2, false, func() {
			cl1.WriteFile("/user/app/part-1", 2, false, nil)
		})
	})
	env.Sim.Schedule("dfs-client-2", 210*des.Millisecond, func() {
		cl2.WriteFile("/user/app/part-2", 2, false, func() {
			cl2.WriteFile("/user/app/part-3", 2, false, nil)
		})
	})
	// The abandoned writer: its lease must be recovered by the namenode.
	env.Sim.Schedule("dfs-client-1", 500*des.Millisecond, func() {
		cl1.WriteFile("/user/tmp/staging", 2, true, nil)
	})
}

// WorkloadCheckpoint drives writes while the secondary namenode
// checkpoints — the driving workload for f5 (HD-4233) and f6 (HD-12248).
func WorkloadCheckpoint(env *cluster.Env) {
	c := NewCluster(env, Options{DataNodes: 3, WithSecondary: true})
	c.Start()
	cl := c.NewClient("dfs-client-1")
	for i := 0; i < 3; i++ {
		i := i
		env.Sim.Schedule("dfs-client-1", des.Time(200+400*i)*des.Millisecond, func() {
			cl.WriteFile("/user/journal/edit-"+strconv.Itoa(i), 1, false, nil)
		})
	}
}

// WorkloadRead writes a file, waits past the token lifetime, then reads it
// back twice — the driving workload for f9 (HD-16332).
func WorkloadRead(env *cluster.Env) {
	c := NewCluster(env, Options{DataNodes: 3})
	c.Start()
	cl := c.NewClient("dfs-client-1")
	env.Sim.Schedule("dfs-client-1", 200*des.Millisecond, func() {
		cl.WriteFile("/user/data/events", 2, false, func() {
			env.Sim.Schedule("dfs-client-1", 300*des.Millisecond, func() {
				cl.ReadFile("/user/data/events", func() {
					env.Sim.Schedule("dfs-client-1", 250*des.Millisecond, func() {
						cl.ReadFile("/user/data/events", nil)
					})
				})
			})
		})
	})
}

// WorkloadStartup boots the cluster cold and runs a small write once it is
// up — the driving workload for f10 (HD-14333), where the interesting
// window is datanode registration.
func WorkloadStartup(env *cluster.Env) {
	c := NewCluster(env, Options{DataNodes: 3})
	c.Start()
	cl := c.NewClient("dfs-client-1")
	env.Sim.Schedule("dfs-client-1", 600*des.Millisecond, func() {
		cl.WriteFile("/user/boot/healthcheck", 1, false, nil)
	})
}

// WorkloadBalancer creates an imbalanced block distribution and runs the
// balancer — the driving workload for f11 (HD-15032).
func WorkloadBalancer(env *cluster.Env) {
	c := NewCluster(env, Options{DataNodes: 3, WithBalancer: true})
	c.Start()
	cl := c.NewClient("dfs-client-1")
	env.Sim.Schedule("dfs-client-1", 200*des.Millisecond, func() {
		cl.WriteFile("/user/warehouse/big-0", 2, false, func() {
			cl.WriteFile("/user/warehouse/big-1", 2, false, nil)
		})
	})
}
