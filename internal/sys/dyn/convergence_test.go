package dyn

// Fault-free runs of both dyn workloads must converge within the bounds
// the failure oracles assert against, under every seed — and each run
// must be byte-identical when repeated, because the explorer's feedback
// loop diffs logs across rounds and any nondeterminism poisons the diff.

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/des"
)

// runFree is a free run in a fresh environment; a trial error fails the
// test.
func runFree(t *testing.T, w cluster.Workload, seed int64) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(nil, nil, seed, nil, w, Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFaultFreeConvergence(t *testing.T) {
	cases := []struct {
		name     string
		workload cluster.Workload
		bound    des.Time
	}{
		{"membership", WorkloadMembership, MembershipConvergeBound},
		{"tombstones", WorkloadTombstones, TombstoneConvergeBound},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42, 99, 777} {
				res := runFree(t, tc.workload, seed)
				c := res.Convergence
				if !c.Tracked {
					t.Fatalf("seed %d: convergence not tracked", seed)
				}
				if !c.Converged {
					t.Errorf("seed %d: replicas did not converge\n%s", seed, res.RenderLog())
					continue
				}
				if c.Since > tc.bound {
					t.Errorf("seed %d: converged at %v, bound %v", seed, c.Since, tc.bound)
				}
				if res.LogContains("anti-entropy audit: replicas diverged beyond grace period") {
					t.Errorf("seed %d: fault-free run escalated past the audit grace period", seed)
				}
				again := runFree(t, tc.workload, seed)
				if res.RenderLog() != again.RenderLog() {
					t.Errorf("seed %d: two fault-free runs rendered different logs", seed)
				}
			}
		})
	}
}
