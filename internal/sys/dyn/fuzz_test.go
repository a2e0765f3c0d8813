package dyn

// FuzzDynOps drives random put/get/delete traffic through one pinned
// coordinator while partitions among the storage nodes open and close,
// then heals everything and checks the eventual-consistency contract:
// the run never panics, a deleted key never comes back after
// convergence, and with R+W>N an acknowledged write is never read stale
// or missing.
//
// Expectations are recorded when an operation is issued, not when it is
// acknowledged: every issued write is either applied or hinted to each
// owner, all traffic shares one coordinator (so later writes dominate
// earlier ones), and all partitions heal — so the replicas must converge
// on the last issued state per key even for writes whose ack was lost.

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
)

var fuzzPairs = [][2]string{
	{"dyn1", "dyn2"}, {"dyn1", "dyn3"}, {"dyn1", "dyn4"},
	{"dyn2", "dyn3"}, {"dyn2", "dyn4"}, {"dyn3", "dyn4"},
}

func FuzzDynOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 0, 3}, int64(1))
	f.Add([]byte{4, 0, 0, 1, 2, 1, 4, 0, 0, 2}, int64(7))
	f.Add([]byte{0, 0, 4, 3, 2, 0, 4, 3, 0, 5, 3, 5, 2, 5}, int64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 80 {
			data = data[:80]
		}
		workload := func(env *cluster.Env) {
			c := New(env, Config{
				Nodes:   []string{"dyn1", "dyn2", "dyn3", "dyn4"},
				Members: []string{"dyn1", "dyn2", "dyn3", "dyn4"},
				N:       3, R: 2, W: 2,
				VNodes: 32,
				// Grace longer than the horizon: tombstones are never
				// purged, so any resurrection is a versioning defect.
				GCGrace: 10 * des.Second,
			})
			cl := c.NewClient("dyn-client-a", "dyn2")
			issue := func(op, key, val string) {
				env.Net.Call("dyn.client.op-rpc", simnet.Message{
					From: cl.name, To: cl.coord, Type: "dyn.op",
					Payload: opReq{Op: op, Key: key, Val: val},
				}, 300*des.Millisecond, func(_ interface{}, err error) {
					if err != nil {
						env.Log.Debugf("fuzz: %s of %s not acknowledged", op, key)
					}
				})
			}
			cut := map[int]bool{}
			at := 150 * des.Millisecond
			for i := 0; i+1 < len(data); i += 2 {
				op, arg := data[i], int(data[i+1])
				key := keyName(arg % 6)
				at += 30 * des.Millisecond
				when := at
				switch op % 5 {
				case 0, 1:
					val := valName(arg % 16)
					env.Sim.Schedule(cl.name, when, func() {
						c.expectPut(key, val)
						issue("put", key, val)
					})
				case 2:
					env.Sim.Schedule(cl.name, when, func() {
						c.expectDelete(key)
						issue("del", key, "")
					})
				case 3:
					env.Sim.Schedule(cl.name, when, func() { issue("get", key, "") })
				case 4:
					pair := fuzzPairs[arg%len(fuzzPairs)]
					idx := arg % len(fuzzPairs)
					env.Sim.Schedule("fuzz-harness", when, func() {
						cut[idx] = !cut[idx]
						env.Net.Partition(pair[0], pair[1], cut[idx])
					})
				}
			}
			env.Sim.Schedule("fuzz-harness", 1700*des.Millisecond, func() {
				for _, pair := range fuzzPairs {
					env.Net.Partition(pair[0], pair[1], false)
				}
			})
			cl.VerifyRange(2200*des.Millisecond, 25*des.Millisecond, 0, 5)
		}
		res := runFree(t, workload, seed)
		for _, symptom := range []string{
			"after delete (resurrected)",
			"missing after quorum write",
			"stale after quorum write",
		} {
			if res.LogContains(symptom) {
				t.Fatalf("consistency violation %q:\n%s", symptom, res.RenderLog())
			}
		}
		c := res.Convergence
		if c.Tracked && !c.Converged {
			t.Fatalf("replicas did not converge after heal:\n%s", res.RenderLog())
		}
	})
}
