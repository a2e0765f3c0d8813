package toy

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
)

// run is one trial in a fresh environment; a trial error fails the test.
func run(t *testing.T, seed int64, plan *inject.Plan) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(nil, nil, seed, plan, Workload, Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHealthyRun(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := run(t, seed, nil)
		if r.LogContains("unrecoverable state") {
			t.Fatalf("seed %d: failure without faults", seed)
		}
		if counts := r.Env.FI.Counts(); counts["toy.scrub-store"] == 0 || counts["toy.ping-peer"] == 0 {
			t.Fatalf("seed %d: sites not exercised: %v", seed, counts)
		}
	}
}

func TestSingleFaultsAreTolerated(t *testing.T) {
	scrub := run(t, 1, inject.Exact(inject.Instance{Site: "toy.scrub-store", Occurrence: 2}))
	if scrub.LogContains("unrecoverable state") {
		t.Fatal("scrub fault alone should be tolerated")
	}
	if !scrub.LogContains("store repaired, degradation cleared") {
		t.Fatalf("degradation not repaired:\n%s", scrub.RenderLog())
	}
	ping := run(t, 1, inject.Exact(inject.Instance{Site: "toy.ping-peer", Occurrence: 2}))
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
	r := run(t, 1, plan)
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
	r := run(t, 1, plan)
	if r.LogContains("unrecoverable state") {
		t.Fatalf("faults outside the window should be tolerated:\n%s", r.RenderLog())
	}
}
