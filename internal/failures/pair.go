package failures

// The combined-fault scenarios (f30–f31): failures that require two
// faults in one execution before the symptom appears. Each is validated
// the same way the single-fault dataset is — the ground-truth pair is
// confirmed by injection under FailureSeed — plus a stronger negative
// property the proof tests pin: no single site or environment fault
// satisfies the oracle, so the explorer can only reproduce these through
// the pair fault class.
//
// f30 (dyn): the f28 "bare hint" defect needs a second fault to become a
// permanent resurrection. A socket error during the 600ms-tick replay of
// k002's hint requeues the hint stripped of its vector clock — but k002's
// regular apply already reached dyn3, so the bare replay alone is
// harmless. The second fault kills exactly that apply (the persist-record
// reached at the retried replay's position in the record stream), which
// both removes the tombstone-aware copy and delays the bare replay past
// k002's delete at t=780ms; the fabricated coordinator version then
// dominates the tombstone and the delete resurrects for good.
//
// f31 (dfs): the HD-13039 xceiver leak exhausts one datanode's pool per
// leaked connection — a single leak (f8) degrades one node and the
// 2-of-3 pipeline survives. Two leaked connections on distinct datanodes
// exhaust two pools, and with only one healthy node left the client's
// retries cannot build any pipeline: the write fails terminally.

import (
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/dfs"
	"anduril/internal/sys/dyn"
)

// pairClasses restricts the explorer to the combined-fault space: the
// scenarios' negative property (no single fault reproduces) makes the
// site and env classes pure noise for them.
var pairClasses = []string{core.ClassPair}

func init() {
	// The pair roots' member sites, stated once for Root and FindRoot:
	// f30 pairs rh with pr, f31 pairs cd with itself.
	const rh, pr = "dyn.handoff.replay-hint", "dyn.store.persist-record"
	const cd = "dfs.datanode.connect-downstream"

	register(&Scenario{
		ID:          "f30",
		Issue:       "DY-HINT-APPLY-RACE",
		System:      "dyn",
		Description: "Bare hint replay resurrects a delete only when the regular apply is also lost",
		Workload:    dyn.WorkloadTombstones,
		// Pinned to k002: the requeued-hint line names the key whose hint
		// lost its version metadata, the resurrect line proves the bare
		// replay's fabricated version beat the tombstone, and Diverged
		// proves the anti-entropy audit never reconciled it. Exact matching
		// matters — the digit-insensitive LogContains cannot tell k002 from
		// the neighboring keys whose hints replay in the same tick.
		// The persist-failure line discriminates this mechanism from the
		// cheaper look-alike where the *tombstone* persist is the second
		// fault: there the delete is simply lost on one node, and the
		// incident log shows "Tombstone persist ... acknowledging delete
		// anyway" instead of a failed record apply on dyn3.
		Oracle: oracle.And(
			oracle.LogContainsExact("Hint replay of k002 to dyn3 failed; requeued without version metadata"),
			oracle.LogContainsExact("Record persist for k002 failed on dyn3"),
			oracle.LogContainsExact("verify: k002 returned v002 after delete (resurrected)"),
			oracle.Diverged(),
		),
		Root:         inject.PairInstance(inject.Instance{Site: rh, Occurrence: 18}, inject.Instance{Site: pr, Occurrence: 30}),
		FaultClasses: pairClasses,
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// The persist member must kill a *retry* apply — the bare
			// replay's own store write, which sits at the tail of the record
			// stream — so scan persist occurrences from the top. The hint
			// member is scanned in attempt order.
			counts := free.Env.FI.Counts()
			var env *cluster.Env
			for y := counts[pr]; y >= 1; y-- {
				for x := 1; x <= counts[rh]; x++ {
					pi := inject.PairInstance(inject.Instance{Site: rh, Occurrence: x}, inject.Instance{Site: pr, Occurrence: y})
					var ok bool
					if ok, env = s.trial(env, seed, inject.Exact(pi), s.features()); ok {
						return pi, true
					}
				}
			}
			return inject.Instance{}, false
		},
	})

	register(&Scenario{
		ID:          "f31",
		Issue:       "HD-13039-DOUBLE",
		System:      "dfs",
		Description: "Two leaked xceiver sockets on distinct datanodes make block writes fail terminally",
		Workload:    dfs.WorkloadWrite,
		// A single leak exhausts exactly one pool and the pipeline falls
		// back to the remaining nodes, so the discriminating symptom is two
		// *distinct* datanodes reporting exhaustion plus the client's
		// terminal give-up line. LogContains is digit-insensitive and would
		// count dn1 and dn2 as one message, hence the predicate.
		Oracle: oracle.And(
			oracle.LogContains("Failed to build pipeline"),
			oracle.LogContains("failed to write block"),
			oracle.Predicate("xceiver pools exhausted on >=2 datanodes", multiNodeExhaustion),
		),
		Root:         inject.PairInstance(inject.Instance{Site: cd, Occurrence: 1}, inject.Instance{Site: cd, Occurrence: 2}),
		FaultClasses: pairClasses,
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// Self-pair: unordered occurrence combinations, x < y. Pipeline
			// heads rotate round-robin, so which combinations land on
			// distinct datanodes depends on block numbering — trial-inject.
			n := free.Env.FI.Counts()[cd]
			var env *cluster.Env
			for x := 1; x <= n; x++ {
				for y := x + 1; y <= n; y++ {
					pi := inject.PairInstance(inject.Instance{Site: cd, Occurrence: x}, inject.Instance{Site: cd, Occurrence: y})
					var ok bool
					if ok, env = s.trial(env, seed, inject.Exact(pi), s.features()); ok {
						return pi, true
					}
				}
			}
			return inject.Instance{}, false
		},
	})
}

// multiNodeExhaustion reports whether at least two distinct datanodes
// logged xceiver-pool exhaustion.
func multiNodeExhaustion(r *cluster.Result) bool {
	const marker = "Xceiver pool exhausted on "
	nodes := map[string]bool{}
	for _, e := range r.Entries {
		i := strings.Index(e.Msg, marker)
		if i < 0 {
			continue
		}
		node, _, _ := strings.Cut(e.Msg[i+len(marker):], ",")
		nodes[node] = true
	}
	return len(nodes) >= 2
}
