package failures

import (
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/dfs"
)

// searchOccurrence trial-injects occurrences of a site until one satisfies
// the scenario's oracle — used for failures whose reproducing instance
// depends on concurrent timing (e.g. pool exhaustion). Each trial is a
// core.Verify, so one that cannot be judged (a panic, a livelock) is not
// the instance.
func searchOccurrence(s *Scenario, free *cluster.Result, seed int64, site string) (inject.Instance, bool) {
	n := free.Env.FI.Counts()[site]
	for occ := 1; occ <= n; occ++ {
		inst := inject.Instance{Site: site, Occurrence: occ}
		if core.Verify(&s.Target, inst, seed) {
			return inst, true
		}
	}
	return inject.Instance{}, false
}

// searchRoot is searchOccurrence over the scenario's root site.
func searchRoot(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
	return searchOccurrence(s, free, seed, s.Root.Site)
}

func init() {
	register(&Scenario{
		Target: core.Target{
			ID:          "f5",
			Issue:       "HD-4233",
			System:      "dfs",
			Description: "Rolling backup fails but the server keeps serving",
			Workload:    dfs.WorkloadCheckpoint,
			Oracle: oracle.And(
				oracle.LogContains("Failed to roll edit log"),
				oracle.LogContains("Skipping checkpoint: another checkpoint is in progress"),
			),
			// Any roll can fail, but a later checkpoint must still be
			// attempted, so it cannot be the last occurrence.
			Root: inject.Instance{Site: "dfs.namenode.read-edits", Occurrence: 1},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f6",
			Issue:       "HD-12248",
			System:      "dfs",
			Description: "Exception when transferring fs image to namenode causes the checkpoint to ignore the image backup",
			Workload:    dfs.WorkloadCheckpoint,
			Oracle: oracle.And(
				oracle.LogContains("Exception during image transfer"),
				oracle.LogContains("Checkpoint finished"),
			),
			Root: inject.Instance{Site: "dfs.secondary.upload-image", Occurrence: 1},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f7",
			Issue:       "HD-12070",
			System:      "dfs",
			Description: "Files will remain open indefinitely if block recovery fails",
			Workload:    dfs.WorkloadWrite,
			Oracle: oracle.And(
				oracle.LogContains("Block recovery failed"),
				oracle.Not(oracle.LogContains("Lease recovered, file closed")),
			),
			Root: inject.Instance{Site: "dfs.datanode.recover-finalize", Occurrence: 1},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f8",
			Issue:       "HD-13039",
			System:      "dfs",
			Description: "Data block creation leaks socket on exception",
			Workload:    dfs.WorkloadWrite,
			Oracle: oracle.And(
				oracle.LogContains("Failed to build pipeline"),
				oracle.LogContains("Xceiver pool exhausted"),
			),
			Root: inject.Instance{Site: "dfs.datanode.connect-downstream", Occurrence: 1},
		},
		// The leak only matters when later concurrent transfers land on
		// the leaked node; trial-inject to find such an occurrence.
		FindRoot: searchRoot,
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f9",
			Issue:       "HD-16332",
			System:      "dfs",
			Description: "Missing handling of expired block token causes slow read",
			Workload:    dfs.WorkloadRead,
			Oracle: oracle.And(
				oracle.LogContains("Invalid block token"),
				oracle.LogContains("slow read detected"),
			),
			Root: inject.Instance{Site: "dfs.client.refetch-token", Occurrence: 1},
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f10",
			Issue:       "HD-14333",
			System:      "dfs",
			Description: "Disk error during namenode registration causes datanodes fail to start",
			Workload:    dfs.WorkloadStartup,
			Oracle: oracle.And(
				oracle.LogContains("Failed to add storage directory"),
				oracle.LogContains("failed to start: no valid volumes"),
			),
			Root: inject.Instance{Site: "dfs.datanode.init-storage", Occurrence: 1},
		},
		FindRoot: func(s *Scenario, free *cluster.Result, seed int64) (inject.Instance, bool) {
			// Must hit the startup registration path, i.e. an occurrence on
			// a dnX-main thread, not the periodic volume re-check.
			for _, ev := range free.Env.FI.Trace() {
				if ev.Site == s.Root.Site && strings.HasSuffix(ev.Thread, "-main") {
					return inject.Instance{Site: ev.Site, Occurrence: ev.Occurrence}, true
				}
			}
			return inject.Instance{}, false
		},
	})

	register(&Scenario{
		Target: core.Target{
			ID:          "f11",
			Issue:       "HD-15032",
			System:      "dfs",
			Description: "Balancer crashes when it fails to contact an unavailable namenode",
			Workload:    dfs.WorkloadBalancer,
			Oracle: oracle.And(
				oracle.LogContains("Unhandled exception in balancer"),
				oracle.LogContains("Balancer terminated"),
			),
			Root: inject.Instance{Site: "dfs.balancer.get-blocks", Occurrence: 2},
		},
	})
}
