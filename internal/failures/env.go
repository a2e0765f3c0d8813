package failures

// The environment-fault scenarios (f23–f25): failures whose root cause
// is not an exception-shaped error return but something the deployment
// environment did — a node crash, a network partition, a delayed
// message. They exercise the env pseudo-site search space
// (internal/inject's env/ sites) end-to-end and, numbered after f22, stay
// out of the paper's f1–f22 evaluation dataset.

import (
	"fmt"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/dfs"
	"anduril/internal/sys/mq"
	"anduril/internal/sys/zk"
)

// envClasses is the search space of the env-rooted scenarios: env
// pseudo-sites only. The CLI can widen it (-fault-classes=env,site).
var envClasses = []string{core.ClassEnv}

func init() {
	register(&Scenario{
		Target: core.Target{
			ID:          "f23",
			Issue:       "ZK-ENV-CRASH",
			System:      "zk",
			Description: "Leader crash during commit closes the client session unrecoverably",
			Workload:    zk.WorkloadQuorum,
			// The crash marker pins the subject node; the session loss and the
			// unfinished workload are the client-visible symptom. A crash
			// outside the commit window lets the ensemble re-elect (or the
			// client retry) in time, so the workload completes and the oracle
			// stays unsatisfied.
			Oracle: oracle.And(
				oracle.LogContainsExact("env: node zk3 crashed"),
				oracle.LogContains("client failed with connection loss"),
				oracle.Not(oracle.LogContains("finished workload")),
			),
			Root:         inject.Instance{Site: "env/crash/zk3", Occurrence: 3},
			FaultClasses: envClasses,
		},
		// The crash must hit the leader while a client write is in flight;
		// trial-inject to find such an occurrence.
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f24",
			Issue:       "KA-ENV-PARTITION",
			System:      "mq",
			Description: "Broker partition expires a live consumer from its group mid-run",
			Workload:    mq.WorkloadGroup,
			// The partition marker pins the cut pair; the expiry of consumer-b
			// (which never crashes in this workload — only consumer-a is
			// stopped by the harness) plus its failing heartbeats are the
			// symptom of a member evicted while alive.
			Oracle: oracle.And(
				oracle.LogContainsExact("env: partition broker-a/consumer-b cut"),
				oracle.LogContains("member consumer-b expired"),
				oracle.LogContains("Consumer consumer-b heartbeat failed"),
			),
			Root:         inject.Instance{Site: "env/partition/broker-a~consumer-b", Occurrence: 2},
			FaultClasses: envClasses,
		},
		// The cut must cover a full session-timeout window while
		// consumer-b is a member.
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f25",
			Issue:       "HD-ENV-DELAY",
			System:      "dfs",
			Description: "Delayed block-recovery RPC leaves an abandoned lease open forever",
			Workload:    dfs.WorkloadWrite,
			// The delay pushes the recover RPC past the namenode's timeout, so
			// the HD-12070 defect drops the lease from the monitor queue with
			// the file still open — the same terminal state as f7, reached
			// through the environment instead of an error return.
			// LogContains compares digit-sanitized messages, so the "dn1" below
			// matches whichever datanode holds the primary replica.
			Oracle: oracle.And(
				oracle.LogContains("env: message nn>dn1 delayed"),
				oracle.LogContains("Block recovery failed"),
				oracle.Not(oracle.LogContains("Lease recovered, file closed")),
			),
			Root:         inject.Instance{Site: "env/msg-delay/nn>dn3", Occurrence: 1},
			FaultClasses: envClasses,
		},
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// Which datanode holds the primary replica of the abandoned
			// file's last block depends on the seed's block allocation;
			// search every namenode->datanode delay channel.
			for i := 1; i <= 3; i++ {
				site := inject.PseudoSiteID(inject.EnvDelay, "nn", fmt.Sprintf("dn%d", i))
				if inst, ok := searchOccurrence(s, free, seed, site); ok {
					return inst, true
				}
			}
			return inject.Instance{}, false
		},
	})
}
