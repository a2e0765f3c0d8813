package toy

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
)

func TestHealthyRun(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := cluster.Execute(seed, nil, true, Workload, Horizon)
		if r.LogContains("unrecoverable state") {
			t.Fatalf("seed %d: failure without faults", seed)
		}
		if r.Counts["toy.scrub-store"] == 0 || r.Counts["toy.ping-peer"] == 0 {
			t.Fatalf("seed %d: sites not exercised: %v", seed, r.Counts)
		}
	}
}

func TestSingleFaultsAreTolerated(t *testing.T) {
	scrub := cluster.Execute(1, inject.Exact(inject.Instance{Site: "toy.scrub-store", Occurrence: 2}), false, Workload, Horizon)
	if scrub.LogContains("unrecoverable state") {
		t.Fatal("scrub fault alone should be tolerated")
	}
	if !scrub.LogContains("store repaired, degradation cleared") {
		t.Fatalf("degradation not repaired:\n%s", scrub.RenderLog())
	}
	ping := cluster.Execute(1, inject.Exact(inject.Instance{Site: "toy.ping-peer", Occurrence: 2}), false, Workload, Horizon)
	if ping.LogContains("unrecoverable state") {
		t.Fatal("ping fault alone should be tolerated")
	}
	if !ping.LogContains("peer ping flaked, tolerated") {
		t.Fatalf("flake not tolerated:\n%s", ping.RenderLog())
	}
}

func TestTwoFaultsInWindowKillService(t *testing.T) {
	plan := inject.Exact(
		inject.Instance{Site: "toy.scrub-store", Occurrence: 2},
		inject.Instance{Site: "toy.ping-peer", Occurrence: 2},
	)
	r := cluster.Execute(1, plan, false, Workload, Horizon)
	if !r.LogContains("unrecoverable state") {
		t.Fatalf("two faults in the window should kill the service:\n%s", r.RenderLog())
	}
}

func TestTwoFaultsOutsideWindowTolerated(t *testing.T) {
	// The ping fault lands after the repair pass cleared the degradation.
	plan := inject.Exact(
		inject.Instance{Site: "toy.scrub-store", Occurrence: 2},
		inject.Instance{Site: "toy.ping-peer", Occurrence: 6},
	)
	r := cluster.Execute(1, plan, false, Workload, Horizon)
	if r.LogContains("unrecoverable state") {
		t.Fatalf("faults outside the window should be tolerated:\n%s", r.RenderLog())
	}
}
