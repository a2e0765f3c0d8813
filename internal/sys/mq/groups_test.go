package mq

import (
	"testing"

	"anduril/internal/inject"
)

func TestGroupWorkloadFailover(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := runFree(t, WorkloadGroup, seed)
		if !r.LogContains("Consumer consumer-a joined group order-processors") {
			t.Fatalf("seed %d: consumer-a never joined\n%s", seed, r.RenderLog())
		}
		if !r.LogContains("Consumer consumer-a process exited") {
			t.Fatalf("seed %d: crash did not happen", seed)
		}
		if !r.LogContains("member consumer-a expired") {
			t.Fatalf("seed %d: coordinator did not expire the dead member\n%s", seed, r.RenderLog())
		}
		// The survivor must end up owning the partition and processing.
		if !r.LogContainsExact("partition of orders owned by consumer-b") {
			t.Fatalf("seed %d: partition did not fail over\n%s", seed, r.RenderLog())
		}
	}
}

func TestGroupRebalanceGenerations(t *testing.T) {
	r := runFree(t, WorkloadGroup, 1)
	// At least: gen 1 (first join), gen 2 (second join), gen 3 (expiry).
	if !r.LogContains("rebalanced to generation 3") {
		t.Fatalf("fewer than 3 generations:\n%s", r.RenderLog())
	}
}

func TestGroupHeartbeatFaultTriggersRejoin(t *testing.T) {
	free := runFree(t, WorkloadGroup, 1)
	if n := free.Env.FI.Counts()["mq.consumer.send-group-heartbeat"]; n < 10 {
		t.Fatalf("heartbeats: %d", n)
	}
	r := runWith(t, WorkloadGroup, 1, inject.Instance{Site: "mq.consumer.send-group-heartbeat", Occurrence: 5})
	if !r.LogContains("heartbeat failed, rejoining group") {
		t.Fatalf("heartbeat fault not handled:\n%s", r.RenderLog())
	}
	// The protocol recovers: the group keeps a live owner.
	if !r.LogContains("partition of orders owned by") {
		t.Fatal("group never rebalanced")
	}
}
