package failures

import (
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/oracle"
	"anduril/internal/sys/dfs"
)

var dfsSrc = []string{"internal/sys/dfs"}

// searchOccurrence trial-injects occurrences of a site until one satisfies
// the scenario's oracle — used for failures whose reproducing instance
// depends on concurrent timing (e.g. pool exhaustion). A trial that could
// not be judged (a panic, a livelock) is not the instance.
func searchOccurrence(s *Scenario, free *cluster.Result, seed int64, site string) (inject.Instance, bool) {
	n := free.Env.FI.Counts()[site]
	for occ := 1; occ <= n; occ++ {
		inst := inject.Instance{Site: site, Occurrence: occ}
		res, err := cluster.Run(nil, nil, seed, inject.Exact(inst), s.Workload, s.Horizon, 0)
		if err == nil && s.Oracle.Satisfied(res) {
			return inst, true
		}
	}
	return inject.Instance{}, false
}

func hasSuffixThread(thread, suffix string) bool { return strings.HasSuffix(thread, suffix) }

func init() {
	register(&Scenario{
		ID:          "f5",
		Issue:       "HD-4233",
		System:      "dfs",
		Description: "Rolling backup fails but the server keeps serving",
		Kind:        inject.FileNotFound,
		Workload:    dfs.WorkloadCheckpoint,
		Horizon:     dfs.Horizon,
		Oracle: oracle.And(
			oracle.LogContains("Failed to roll edit log"),
			oracle.LogContains("Skipping checkpoint: another checkpoint is in progress"),
		),
		SrcDirs:  dfsSrc,
		RootSite: "dfs.namenode.read-edits",
		FindRoot: func(free *cluster.Result, seed int64) (inject.Instance, bool) {
			// Any roll can fail, but a later checkpoint must still be
			// attempted, so it cannot be the last occurrence.
			return nthOccurrence(free, "dfs.namenode.read-edits", 1)
		},
	})

	register(&Scenario{
		ID:          "f6",
		Issue:       "HD-12248",
		System:      "dfs",
		Description: "Exception when transferring fs image to namenode causes the checkpoint to ignore the image backup",
		Kind:        inject.Interrupted,
		Workload:    dfs.WorkloadCheckpoint,
		Horizon:     dfs.Horizon,
		Oracle: oracle.And(
			oracle.LogContains("Exception during image transfer"),
			oracle.LogContains("Checkpoint finished"),
		),
		SrcDirs:  dfsSrc,
		RootSite: "dfs.secondary.upload-image",
		FindRoot: func(free *cluster.Result, seed int64) (inject.Instance, bool) {
			return nthOccurrence(free, "dfs.secondary.upload-image", 1)
		},
	})

	register(&Scenario{
		ID:          "f7",
		Issue:       "HD-12070",
		System:      "dfs",
		Description: "Files will remain open indefinitely if block recovery fails",
		Kind:        inject.IO,
		Workload:    dfs.WorkloadWrite,
		Horizon:     dfs.Horizon,
		Oracle: oracle.And(
			oracle.LogContains("Block recovery failed"),
			oracle.Not(oracle.LogContains("Lease recovered, file closed")),
		),
		SrcDirs:  dfsSrc,
		RootSite: "dfs.datanode.recover-finalize",
		FindRoot: func(free *cluster.Result, seed int64) (inject.Instance, bool) {
			return nthOccurrence(free, "dfs.datanode.recover-finalize", 1)
		},
	})

	register(&Scenario{
		ID:          "f8",
		Issue:       "HD-13039",
		System:      "dfs",
		Description: "Data block creation leaks socket on exception",
		Kind:        inject.IO,
		Workload:    dfs.WorkloadWrite,
		Horizon:     dfs.Horizon,
		Oracle: oracle.And(
			oracle.LogContains("Failed to build pipeline"),
			oracle.LogContains("Xceiver pool exhausted"),
		),
		SrcDirs:  dfsSrc,
		RootSite: "dfs.datanode.connect-downstream",
		FindRoot: func(free *cluster.Result, seed int64) (inject.Instance, bool) {
			// The leak only matters when later concurrent transfers land on
			// the leaked node; trial-inject to find such an occurrence.
			s, _ := ByID("f8")
			return searchOccurrence(s, free, seed, "dfs.datanode.connect-downstream")
		},
	})

	register(&Scenario{
		ID:          "f9",
		Issue:       "HD-16332",
		System:      "dfs",
		Description: "Missing handling of expired block token causes slow read",
		Kind:        inject.IO,
		Workload:    dfs.WorkloadRead,
		Horizon:     dfs.Horizon,
		Oracle: oracle.And(
			oracle.LogContains("Invalid block token"),
			oracle.LogContains("slow read detected"),
		),
		SrcDirs:  dfsSrc,
		RootSite: "dfs.client.refetch-token",
		FindRoot: func(free *cluster.Result, seed int64) (inject.Instance, bool) {
			return nthOccurrence(free, "dfs.client.refetch-token", 1)
		},
	})

	register(&Scenario{
		ID:          "f10",
		Issue:       "HD-14333",
		System:      "dfs",
		Description: "Disk error during namenode registration causes datanodes fail to start",
		Kind:        inject.IO,
		Workload:    dfs.WorkloadStartup,
		Horizon:     dfs.Horizon,
		Oracle: oracle.And(
			oracle.LogContains("Failed to add storage directory"),
			oracle.LogContains("failed to start: no valid volumes"),
		),
		SrcDirs:  dfsSrc,
		RootSite: "dfs.datanode.init-storage",
		FindRoot: func(free *cluster.Result, seed int64) (inject.Instance, bool) {
			// Must hit the startup registration path, i.e. an occurrence on
			// a dnX-main thread, not the periodic volume re-check.
			for _, ev := range free.Env.FI.Trace() {
				if ev.Site == "dfs.datanode.init-storage" && hasSuffixThread(ev.Thread, "-main") {
					return inject.Instance{Site: ev.Site, Occurrence: ev.Occurrence}, true
				}
			}
			return inject.Instance{}, false
		},
	})

	register(&Scenario{
		ID:          "f11",
		Issue:       "HD-15032",
		System:      "dfs",
		Description: "Balancer crashes when it fails to contact an unavailable namenode",
		Kind:        inject.Socket,
		Workload:    dfs.WorkloadBalancer,
		Horizon:     dfs.Horizon,
		Oracle: oracle.And(
			oracle.LogContains("Unhandled exception in balancer"),
			oracle.LogContains("Balancer terminated"),
		),
		SrcDirs:  dfsSrc,
		RootSite: "dfs.balancer.get-blocks",
		FindRoot: func(free *cluster.Result, seed int64) (inject.Instance, bool) {
			return nthOccurrence(free, "dfs.balancer.get-blocks", 2)
		},
	})
}
