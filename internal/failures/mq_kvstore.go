package failures

import (
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/kvstore"
	"anduril/internal/sys/mq"
)

func init() {
	register(&Scenario{
		Target: core.Target{
			ID:          "f18",
			Issue:       "KA-12508",
			System:      "mq",
			Description: "Emit-on-change tables lose updates after error and restart",
			Workload:    mq.WorkloadStreams,
			Oracle: oracle.And(
				oracle.LogContains("restarting task"),
				oracle.LogContains("lost update"),
			),
			Root: inject.Instance{Site: "mq.streams.checkpoint", Occurrence: 5},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f19",
			Issue:       "KA-9374",
			System:      "mq",
			Description: "Blocked connectors disable the Workers",
			Workload:    mq.WorkloadConnect,
			Oracle: oracle.And(
				oracle.ThreadStuck("connector-stop"),
				oracle.LogContains("worker unresponsive"),
			),
			Root: inject.Instance{Site: "mq.connect.stop-connector", Occurrence: 1},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f20",
			Issue:       "KA-10048",
			System:      "mq",
			Description: "Consumer's failover under MM2 replication configuration causes data gap between 2 clusters",
			Workload:    mq.WorkloadMirror,
			Oracle: oracle.And(
				oracle.LogContains("errors.tolerance"),
				oracle.LogContains("Data gap detected"),
			),
			Root: inject.Instance{Site: "mq.mm2.convert-record", Occurrence: 44},
		},
		// The dropped record must be one the consumer had not yet read when
		// it failed over; trial-inject to find such an occurrence.
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f21",
			Issue:       "C*-17663",
			System:      "kvstore",
			Description: "Interrupted FileStreamTask compromise shared channel proxy",
			Workload:    kvstore.WorkloadRepair,
			Oracle: oracle.And(
				oracle.LogContains("channel proxy in invalid state"),
				oracle.Not(oracle.LogContains("completed successfully")),
			),
			Root: inject.Instance{Site: "cs.stream.file-task", Occurrence: 1},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f22",
			Issue:       "C*-6415",
			System:      "kvstore",
			Description: "Snapshot repair blocks forever if get no response of makeSnapshot",
			Workload:    kvstore.WorkloadRepair,
			Oracle: oracle.And(
				oracle.ThreadStuck("await-snapshot-responses"),
				oracle.LogContains("Repair session repair-1 started"),
			),
			Root: inject.Instance{Site: "cs.repair.make-snapshot", Occurrence: 2},
		},
		NewRootCause: "an earlier disk fault writing the snapshot file (cs.repair.write-snapshot) also leaves the coordinator waiting forever — deeper than the message-loss diagnosis",
	})
}
