package mq

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
)

func runFree(t *testing.T, w cluster.Workload, seed int64) *cluster.Result {
	t.Helper()
	return run(t, w, seed, nil)
}

func runWith(t *testing.T, w cluster.Workload, seed int64, inst inject.Instance) *cluster.Result {
	t.Helper()
	return run(t, w, seed, inject.Exact(inst))
}

// run is one trial in a fresh environment; a trial error fails the test.
func run(t *testing.T, w cluster.Workload, seed int64, plan *inject.Plan) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(nil, nil, seed, plan, w, Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStreamsWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := runFree(t, WorkloadStreams, seed)
		if !r.LogContains("verification passed") {
			t.Fatalf("seed %d: emissions not verified\n%s", seed, r.RenderLog())
		}
		if r.LogContains("lost update") {
			t.Fatalf("seed %d: spurious update loss", seed)
		}
	}
}

func TestConnectWorkloadHealthy(t *testing.T) {
	r := runFree(t, WorkloadConnect, 1)
	if !r.LogContains("restarted with new configuration") {
		t.Fatalf("reconfigure never ran:\n%s", r.RenderLog())
	}
	if stuck := r.Env.Sim.Blocked(); r.LogContains("worker unresponsive") || len(stuck) != 0 {
		t.Fatalf("worker wedged without fault: %v", stuck)
	}
}

func TestMirrorWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := runFree(t, WorkloadMirror, seed)
		if !r.LogContains("resumed on") {
			t.Fatalf("seed %d: failover did not complete\n%s", seed, r.RenderLog())
		}
		if r.LogContains("Data gap detected") {
			t.Fatalf("seed %d: spurious data gap", seed)
		}
	}
}

// f18 — KA-12508: checkpoint failure between store write and emit loses
// the update across the restart.
func TestF18LostUpdate(t *testing.T) {
	r := runWith(t, WorkloadStreams, 1, inject.Instance{Site: "mq.streams.checkpoint", Occurrence: 5})
	if !r.LogContains("restarting task") {
		t.Fatalf("task did not restart:\n%s", r.RenderLog())
	}
	if !r.LogContains("lost update") {
		t.Fatalf("update not lost:\n%s", r.RenderLog())
	}
	if !r.LogContains("no change for key") {
		t.Fatalf("emit-on-change skip not hit:\n%s", r.RenderLog())
	}
}

// f18 control: a store-write failure before persistence is safe — the
// restart reprocesses the record and emits normally.
func TestF18StoreWriteTolerated(t *testing.T) {
	r := runWith(t, WorkloadStreams, 1, inject.Instance{Site: "mq.streams.write-store", Occurrence: 5})
	if !r.LogContains("Restarting streams task") {
		t.Fatalf("task should restart:\n%s", r.RenderLog())
	}
	if r.LogContains("lost update") {
		t.Fatal("store-write failure must not lose updates")
	}
}

// f19 — KA-9374: a connector that cannot stop blocks the herder and
// disables the whole worker.
func TestF19BlockedHerder(t *testing.T) {
	r := runWith(t, WorkloadConnect, 1, inject.Instance{Site: "mq.connect.stop-connector", Occurrence: 1})
	if !r.BlockedOn("connector-stop") {
		t.Fatalf("herder not blocked: %v\n%s", r.Env.Sim.Blocked(), r.RenderLog())
	}
	if !r.LogContains("worker unresponsive") {
		t.Fatalf("other requests should time out:\n%s", r.RenderLog())
	}
}

// f19 control: task-poll failures are retried and harmless.
func TestF19TaskPollTolerated(t *testing.T) {
	r := runWith(t, WorkloadConnect, 1, inject.Instance{Site: "mq.connect.task-poll", Occurrence: 3})
	if r.LogContains("worker unresponsive") {
		t.Fatal("poll failure must not wedge the worker")
	}
	if !r.LogContains("task poll failed") {
		t.Fatalf("poll retry path not hit:\n%s", r.RenderLog())
	}
}

// f20 — KA-10048: a tolerated conversion drop desynchronizes the offset
// mapping; the failed-over consumer skips records.
func TestF20DataGap(t *testing.T) {
	free := runFree(t, WorkloadMirror, 1)
	n := free.Env.FI.Counts()["mq.mm2.convert-record"]
	if n < 30 {
		t.Fatalf("convert occurrences: %d", n)
	}
	hit := 0
	for occ := 1; occ <= n; occ++ {
		r := runWith(t, WorkloadMirror, 1, inject.Instance{Site: "mq.mm2.convert-record", Occurrence: occ})
		if r.LogContains("errors.tolerance") && r.LogContains("Data gap detected") {
			hit = occ
			break
		}
	}
	if hit == 0 {
		t.Fatal("no drop occurrence produced a failover gap")
	}
	t.Logf("occurrence %d of %d produces the gap", hit, n)
}

func TestFaultSitesExercised(t *testing.T) {
	sites := map[string]bool{}
	for _, w := range []cluster.Workload{WorkloadStreams, WorkloadConnect, WorkloadMirror} {
		r := runFree(t, w, 1)
		for s, n := range r.Env.FI.Counts() {
			if n > 0 {
				sites[s] = true
			}
		}
	}
	for _, site := range []string{
		"mq.broker.append-log", "mq.streams.checkpoint", "mq.streams.write-store",
		"mq.streams.poll", "mq.connect.stop-connector", "mq.connect.task-poll",
		"mq.mm2.convert-record", "mq.mm2.write-offset-sync", "mq.mm2.poll-source",
		"mq.producer.send",
	} {
		if !sites[site] {
			t.Errorf("fault site %s never exercised", site)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runFree(t, WorkloadMirror, 5)
	b := runFree(t, WorkloadMirror, 5)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("nondeterministic: %d vs %d", len(a.Entries), len(b.Entries))
	}
}
