package failures

// The Dynamo-style anti-entropy scenarios (f26–f29): failures of an
// eventually-consistent quorum store whose client-visible symptom is a
// convergence violation — replicas that never agree again, or a deleted
// key that comes back — rather than an unavailable service. Their oracles
// pair log symptoms with the ConvergedWithin oracle over the target's
// own anti-entropy audit.
//
// f26–f28 are rooted in error-return faults, but they opt into the env
// search space too (the dyn target registers crash/restart controls and
// its workloads survive environment faults); like every failure after
// f22 they stay out of the paper's 22-scenario evaluation dataset. f29 is
// rooted in a network partition and searches env pseudo-sites only, like
// f23–f25.

import (
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/dyn"
)

// dynClasses widens the search space of the site-rooted dyn scenarios to
// both classes: the root causes are error returns, but the target is
// env-fault compatible and the wider space exercises the two-pass
// candidate window (site instances rank before env instances).
var dynClasses = []string{core.ClassSite, core.ClassEnv}

func init() {
	register(&Scenario{
		Target: core.Target{
			ID:          "f26",
			Issue:       "DY-GOSSIP-STALE",
			System:      "dyn",
			Description: "Dropped gossip pull leaves the coordinator routing writes on a stale ring",
			Workload:    dyn.WorkloadMembership,
			// The defect marks a failed ring pull as handled, so the node never
			// retries and keeps routing on ring v1. Only the coordinator's own
			// pull matters: a stale ring on a non-coordinator heals through read
			// repair, but the coordinator keeps writing new keys to v1 owners
			// the verify pass (routed by v2 audit ownership) never reconciles.
			Oracle: oracle.And(
				oracle.LogContains("digest marked handled"),
				oracle.LogContains("anti-entropy audit: replicas diverged beyond grace period"),
				oracle.Not(oracle.ConvergedWithin(dyn.MembershipConvergeBound)),
			),
			Root:         inject.Instance{Site: "dyn.gossip.pull-ring", Occurrence: 2},
			FaultClasses: dynClasses,
		},
		// Which pull occurrence belongs to the coordinator depends on
		// gossip timing; trial-inject to find it.
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f27",
			Issue:       "DY-REPAIR-RESURRECT",
			System:      "dyn",
			Description: "Delete acked despite failed tombstone persist; read repair resurrects the key",
			Workload:    dyn.WorkloadTombstones,
			// The defect acknowledges a delete whose tombstone was never
			// applied, so one replica keeps the old version. The next quorum
			// read merges the sets, finds the live version concurrent with
			// nothing (the tombstone is missing), and read-repairs the deleted
			// value back onto every owner.
			Oracle: oracle.And(
				oracle.LogContains("acknowledging delete anyway"),
				oracle.LogContains("after delete (resurrected)"),
				oracle.Not(oracle.ConvergedWithin(dyn.TombstoneConvergeBound)),
			),
			Root:         inject.Instance{Site: "dyn.store.persist-tombstone", Occurrence: 1},
			FaultClasses: dynClasses,
		},
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f28",
			Issue:       "DY-HINT-TOMBSTONE",
			System:      "dyn",
			Description: "Hint replayed without version metadata dominates a later tombstone",
			Workload:    dyn.WorkloadTombstones,
			// A socket error mid-replay requeues the hint stripped of its
			// vector clock; the retry fabricates a fresh coordinator version
			// that dominates any tombstone written in between. Only replays
			// racing a delete — hinted before it, retried after it — resurrect
			// the key; every other occurrence stays tombstone-aware, which is
			// what makes the reproducing window narrow.
			Oracle: oracle.And(
				oracle.LogContains("requeued without version metadata"),
				oracle.LogContains("after delete (resurrected)"),
				oracle.Not(oracle.ConvergedWithin(dyn.TombstoneConvergeBound)),
			),
			Root:         inject.Instance{Site: "dyn.handoff.replay-hint", Occurrence: 16},
			FaultClasses: dynClasses,
		},
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f29",
			Issue:       "DY-ENV-SPLIT",
			System:      "dyn",
			Description: "Partition mid-rebalance marks an undelivered range as migrated",
			Workload:    dyn.WorkloadMembership,
			// A partition cutting the transfer channel during the dyn4
			// rebalance makes the range transfer fail; the defect marks the
			// range migrated anyway and releases the source replicas, so the
			// moved keys drop below quorum until a verify read happens to
			// repair them — long after the convergence bound.
			// LogContains compares digit-sanitized messages, so the "dyn1/dyn4"
			// below matches whichever source node the cut isolates.
			Oracle: oracle.And(
				oracle.LogContains("env: partition dyn1/dyn4 cut"),
				oracle.LogContains("marking range migrated"),
				oracle.LogContains("anti-entropy audit: replicas diverged beyond grace period"),
				oracle.Not(oracle.ConvergedWithin(dyn.MembershipConvergeBound)),
			),
			Root:         inject.Instance{Site: "env/partition/dyn1~dyn4", Occurrence: 2},
			FaultClasses: envClasses,
		},
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// The cut must isolate the node that sources a range transfer
			// to dyn4 while the transfer is in flight; which channel that
			// is depends on ring geometry, so search all three.
			for _, src := range []string{"dyn1", "dyn2", "dyn3"} {
				site := inject.PseudoSiteID(inject.EnvPartition, src, "dyn4")
				if inst, ok := searchOccurrence(s, free, seed, site); ok {
					return inst, true
				}
			}
			return inject.Instance{}, false
		},
	})
}
