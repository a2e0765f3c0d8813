package failures

// The partial-failure scenarios (f32–f34): failures whose root cause is
// not a clean typed exception but a messy errno-level partial failure —
// a rename torn between copy and unlink, a short write leaving half a
// record, a message delivered twice. They exercise the partial
// pseudo-site search space (internal/inject's partial/ sites) end-to-end
// and are kept out of the paper's f1–f22 evaluation dataset by their
// non-nil FaultClasses. Each reproduces ONLY under a partial fault: the
// clean all-or-nothing faults of the site and env classes cannot leave
// the intermediate states these oracles pin (proven by the sweep tests
// in internal/core).

import (
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/dfs"
	"anduril/internal/sys/mq"
	"anduril/internal/sys/zk"
)

// partialClasses is the search space of the partial-rooted scenarios:
// partial pseudo-sites only. The CLI can widen it
// (-fault-classes=partial,site).
var partialClasses = []string{core.ClassPartial}

func init() {
	register(&Scenario{
		ID:          "f32",
		Issue:       "HD-PARTIAL-TORN",
		System:      "dfs",
		Description: "Edit-log roll torn mid-rename leaves double edit logs and latches checkpointing off forever",
		Workload:    dfs.WorkloadCheckpoint,
		// The torn rename leaves BOTH nn/edits and nn/edits.rolled on disk
		// — the intermediate state no clean fault can produce: an
		// all-or-nothing rename failure leaves only the source, a success
		// only the destination. The failed roll also returns an error
		// without clearing checkpointBusy (the HD-4233 latch), so every
		// later checkpoint is skipped and the torn state persists to the
		// end of the run.
		Oracle: oracle.And(
			oracle.LogContainsExact("partial: torn rename at dfs.namenode.rename-edits"),
			oracle.LogContains("Failed to roll edit log"),
			oracle.LogContains("Skipping checkpoint: another checkpoint is in progress"),
			oracle.FileExists("nn/edits"),
			oracle.FileExists("nn/edits.rolled"),
		),
		Root:         inject.Instance{Site: inject.PseudoSiteID(inject.PartialTornRename, "dfs.namenode.rename-edits", ""), Occurrence: 1},
		FaultClasses: partialClasses,
		// The torn roll must not be the last checkpoint attempt, or no
		// later cycle observes the latched busy flag.
		FindRoot:     searchRoot,
		NewRootCause: "rename torn between copy and unlink: both edit logs exist and checkpointBusy stays latched, so the namenode serves forever without another backup",
	})

	register(&Scenario{
		ID:          "f33",
		Issue:       "ZK-PARTIAL-SHORTWRITE",
		System:      "zk",
		Description: "Short txn-log write leaves a torn record that corrupts recovery after restart",
		Workload:    zk.WorkloadSnapshotRestart,
		// The short write persists half a txn record on zk1 before the
		// error kills its sync processor; a clean write failure (f1's
		// fault) kills the processor too but appends NOTHING, so the log
		// stays whole-record clean. Only the torn tail makes the restarted
		// server's replay hit a record it cannot decode.
		Oracle: oracle.And(
			oracle.LogContainsExact("partial: short write at zk.sync.append-txn"),
			oracle.LogContainsExact("Severe unrecoverable error, exiting SyncRequestProcessor on myid=1"),
			oracle.LogContainsExact("Skipping malformed txn record on myid=1"),
		),
		Root:         inject.Instance{Site: inject.PseudoSiteID(inject.PartialShortWrite, "zk.sync.append-txn", ""), Occurrence: 3},
		FaultClasses: partialClasses,
		// The torn append must land on zk1 (the server the workload
		// restarts) and before the restart; occurrences are global across
		// the ensemble, so search for one on the right server.
		FindRoot:     searchRoot,
		NewRootCause: "txn-log replay skips the torn record silently instead of truncating the tail, so the restarted follower rejoins with a hole in its history",
	})

	register(&Scenario{
		ID:          "f34",
		Issue:       "KA-PARTIAL-DUP",
		System:      "mq",
		Description: "Duplicated produce delivery double-applies an order to the broker log",
		Workload:    mq.WorkloadGroup,
		// The duplicated produce request runs the broker's handler twice:
		// the same order record is appended at two offsets (the producer's
		// response comes from the first delivery; the second response is
		// dropped). No clean fault duplicates state — drops, delays and
		// error returns only ever lose or defer records — so a value
		// appearing twice in the on-disk segment log pins the duplicate
		// delivery exactly.
		Oracle: oracle.And(
			oracle.LogContainsExact("partial: message mq-producer-1>broker-a duplicated"),
			oracle.Predicate("an order value appears twice in broker-a's segment log", func(r *cluster.Result) bool {
				seen := map[string]bool{}
				for _, path := range r.Env.Disk.List("broker-a/orders/") {
					data, ok := r.Env.Disk.Peek(path)
					if !ok {
						continue
					}
					for _, line := range strings.Split(string(data), "\n") {
						// line is "offset|key|value"; the duplicate gets a
						// fresh offset, so compare key|value only.
						_, rec, found := strings.Cut(line, "|")
						if !found {
							continue
						}
						if seen[rec] {
							return true
						}
						seen[rec] = true
					}
				}
				return false
			}),
		),
		Root:         inject.Instance{Site: inject.PseudoSiteID(inject.PartialDupDeliver, "mq-producer-1", "broker-a"), Occurrence: 1},
		FaultClasses: partialClasses,
		FindRoot:     searchRoot,
		NewRootCause: "the broker's produce path is not idempotent: a redelivered request appends a second copy instead of detecting the duplicate sequence number",
	})
}
