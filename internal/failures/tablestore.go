package failures

import (
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/tablestore"
)

func init() {
	register(&Scenario{
		Target: core.Target{
			ID:          "f12",
			Issue:       "HB-18137",
			System:      "tablestore",
			Description: "Empty WAL file causes Replication to get stuck",
			Workload:    tablestore.WorkloadReplication,
			Oracle: oracle.And(
				oracle.LogContains("Failed to write WAL header"),
				oracle.LogContains("Replication stuck on empty WAL file"),
			),
			Root: inject.Instance{Site: "ts.wal.write-header", Occurrence: 1},
		},
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f13",
			Issue:       "HB-19608",
			System:      "tablestore",
			Description: "Interrupted procedure mistakenly causes a failed state flag",
			Workload:    tablestore.WorkloadProcedures,
			Oracle: oracle.And(
				oracle.LogContains("marking procedure as failed"),
				oracle.LogContains("rejecting procedure"),
			),
			// Must interrupt a step with procedures still queued behind it.
			Root: inject.Instance{Site: "ts.proc.step-wait", Occurrence: 2},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f14",
			Issue:       "HB-19876",
			System:      "tablestore",
			Description: "The exception happening in converting pb mutation messes up the CellScanner",
			Workload:    tablestore.WorkloadBatch,
			Oracle: oracle.And(
				oracle.LogContains("Failed to convert mutation"),
				oracle.LogContains("Corrupt cell detected"),
			),
			// Must hit a non-atomic batch before its last mutation.
			Root: inject.Instance{Site: "ts.region.decode-mutation", Occurrence: 2},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f15",
			Issue:       "HB-20583",
			System:      "tablestore",
			Description: "The failure during splitting log causes resubmit of another failed splitting task",
			Workload:    tablestore.WorkloadCrash,
			Oracle: oracle.And(
				oracle.LogContains("resubmitting"),
				oracle.LogContains("still in RECOVERING state"),
				oracle.Not(oracle.LogContainsExact("WAL split for rs2 completed")),
			),
			Root: inject.Instance{Site: "ts.split.read-walchunk", Occurrence: 2},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f16",
			Issue:       "HB-16144",
			System:      "tablestore",
			Description: "Replication queue's lock will live forever if regionserver acquiring the lock has died prematurely",
			Workload:    tablestore.WorkloadCrash,
			Oracle: oracle.And(
				oracle.LogContains("Aborting region server"),
				oracle.LogContains("Failed to claim replication queue"),
				oracle.Not(oracle.LogContainsExact("Claimed replication queue of rs2")),
			),
			Root: inject.Instance{Site: "ts.repl.copy-queue", Occurrence: 1},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f17",
			Issue:       "HB-25905",
			System:      "tablestore",
			Description: "Transient namenode failure in HDFS causes WAL services in HBase to stop making any progress",
			Workload:    tablestore.WorkloadWAL,
			Oracle: oracle.And(
				oracle.LogContains("Failed to get sync result"),
				oracle.ThreadStuck("waitForSafePoint"),
			),
			Root: inject.Instance{Site: "ts.wal.stream-write", Occurrence: 11},
		},
		// Only a stream break landing in the narrow window before a roll —
		// with more unacked appends than one sync batch — wedges the
		// consumer (the paper's "only 2 of 1000+ instances").
		FindRoot: searchRoot,
	})
}
