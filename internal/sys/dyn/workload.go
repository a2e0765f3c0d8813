package dyn

import (
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
)

// Horizon is how long the dyn workloads run; the convergence bounds are
// the virtual times by which a fault-free run has demonstrably converged
// (with margin). The failure oracles assert the run either never
// converged or converged only after the bound.
const (
	Horizon = 3 * des.Second

	MembershipConvergeBound = 1800 * des.Millisecond
	TombstoneConvergeBound  = 1500 * des.Millisecond
)

// Client issues scripted operations through one pinned coordinator, the
// way a Dynamo client sticks to a coordinator for causal context.
type Client struct {
	c     *Cluster
	name  string
	coord string
}

// NewClient creates a client actor pinned to the given coordinator node.
func (c *Cluster) NewClient(name, coord string) *Client {
	return &Client{c: c, name: name, coord: coord}
}

func keyName(i int) string { return numbered('k', i) }
func valName(i int) string { return numbered('v', i) }

// numbered renders prefix and i as fmt's "%c%03d" does for i >= 0.
func numbered(prefix byte, i int) string {
	var b [8]byte
	out := append(b[:0], prefix)
	if i < 100 {
		out = append(out, '0')
	}
	if i < 10 {
		out = append(out, '0')
	}
	return string(strconv.AppendInt(out, int64(i), 10))
}

// PutRange schedules puts of k<first>..k<last>, one every interval
// starting at start.
func (cl *Client) PutRange(start, interval des.Time, first, last int) {
	env := cl.c.env
	for i := first; i <= last; i++ {
		i := i
		env.Sim.Schedule(cl.name, start+des.Time(i-first)*interval, func() {
			cl.put(keyName(i), valName(i))
		})
	}
}

// DeleteRange schedules deletes of k<first>..k<last>.
func (cl *Client) DeleteRange(start, interval des.Time, first, last int) {
	env := cl.c.env
	for i := first; i <= last; i++ {
		i := i
		env.Sim.Schedule(cl.name, start+des.Time(i-first)*interval, func() {
			cl.del(keyName(i))
		})
	}
}

// VerifyRange schedules reads of k<first>..k<last> that check each result
// against the acknowledged client state and log any violation.
func (cl *Client) VerifyRange(start, interval des.Time, first, last int) {
	env := cl.c.env
	for i := first; i <= last; i++ {
		i := i
		env.Sim.Schedule(cl.name, start+des.Time(i-first)*interval, func() {
			cl.verify(keyName(i))
		})
	}
	env.Sim.Schedule(cl.name, start+des.Time(last-first+1)*interval, func() {
		env.Log.Infof("verify: pass complete on %d keys", last-first+1)
	})
}

func (cl *Client) put(key, val string) {
	env := cl.c.env
	env.Net.Call("dyn.client.op-rpc", simnet.Message{
		From: cl.name, To: cl.coord, Type: "dyn.op",
		Payload: opReq{Op: "put", Key: key, Val: val},
	}, 300*des.Millisecond, func(_ interface{}, err error) {
		if err != nil {
			env.Log.Warnf("Client %s: put %s not acknowledged", cl.name, key)
			return
		}
		cl.c.expectPut(key, val)
		env.Log.Debugf("Client %s: put %s acknowledged", cl.name, key)
	})
}

func (cl *Client) del(key string) {
	env := cl.c.env
	env.Net.Call("dyn.client.op-rpc", simnet.Message{
		From: cl.name, To: cl.coord, Type: "dyn.op",
		Payload: opReq{Op: "del", Key: key},
	}, 300*des.Millisecond, func(_ interface{}, err error) {
		if err != nil {
			env.Log.Warnf("Client %s: delete %s not acknowledged", cl.name, key)
			return
		}
		cl.c.expectDelete(key)
		env.Log.Debugf("Client %s: delete %s acknowledged", cl.name, key)
	})
}

func (cl *Client) verify(key string) {
	env := cl.c.env
	env.Net.Call("dyn.client.op-rpc", simnet.Message{
		From: cl.name, To: cl.coord, Type: "dyn.op",
		Payload: opReq{Op: "get", Key: key},
	}, 300*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			env.Log.Warnf("verify: read of %s failed", key)
			return
		}
		resp := payload.(opResp)
		ack := cl.c.ack(key)
		if ack == nil {
			return
		}
		want := ack.acked
		if want == tombSentinel {
			if resp.Found {
				env.Log.Warnf("verify: %s returned %s after delete (resurrected)", key, resp.Val)
			} else {
				env.Log.Debugf("verify: %s confirmed deleted", key)
			}
			return
		}
		switch {
		case !resp.Found:
			env.Log.Warnf("verify: %s missing after quorum write", key)
		case resp.Val != want:
			env.Log.Warnf("verify: %s stale after quorum write", key)
		default:
			env.Log.Debugf("verify: %s intact", key)
		}
	})
}

// WorkloadMembership drives the membership/rebalance scenarios (f26,
// f29): a three-node ring takes a first batch of writes, an operator
// adds dyn4 (ring v2 spreads by gossip and triggers range transfers), a
// second batch lands mid/post-rebalance, and a verify pass re-reads
// everything.
func WorkloadMembership(env *cluster.Env) {
	c := New(env, Config{
		Nodes:   []string{"dyn1", "dyn2", "dyn3", "dyn4"},
		Members: []string{"dyn1", "dyn2", "dyn3"},
		N:       2, R: 2, W: 2,
		VNodes:  64,
		GCGrace: 400 * des.Millisecond,
	})
	cl := c.NewClient("dyn-client-a", "dyn2")
	cl.PutRange(150*des.Millisecond, 30*des.Millisecond, 0, 11)
	env.Sim.Schedule("dyn-operator", 900*des.Millisecond, func() {
		env.Log.Infof("Operator adding dyn4 to the ring")
		c.byName["dyn1"].adoptRing(2, []string{"dyn1", "dyn2", "dyn3", "dyn4"})
	})
	cl.PutRange(1400*des.Millisecond, 30*des.Millisecond, 12, 23)
	cl.VerifyRange(2000*des.Millisecond, 25*des.Millisecond, 0, 23)
}

// WorkloadTombstones drives the delete/anti-entropy scenarios (f27,
// f28): a full four-node ring takes writes while dyn3 is briefly
// unreachable (so hints accumulate), the first keys are deleted, the
// tombstones age past the GC grace period and are purged, and a verify
// pass re-reads everything.
func WorkloadTombstones(env *cluster.Env) {
	c := New(env, Config{
		Nodes:   []string{"dyn1", "dyn2", "dyn3", "dyn4"},
		Members: []string{"dyn1", "dyn2", "dyn3", "dyn4"},
		N:       3, R: 2, W: 2,
		VNodes:  64,
		GCGrace: 400 * des.Millisecond,
	})
	cl := c.NewClient("dyn-client-a", "dyn2")
	env.Sim.Schedule("harness", 140*des.Millisecond, func() {
		env.Net.SetDown("dyn3", true)
		env.Log.Warnf("Node dyn3 became unreachable")
	})
	env.Sim.Schedule("harness", 580*des.Millisecond, func() {
		env.Net.SetDown("dyn3", false)
		env.Log.Infof("Node dyn3 became reachable")
	})
	cl.PutRange(150*des.Millisecond, 30*des.Millisecond, 0, 9)
	cl.DeleteRange(700*des.Millisecond, 40*des.Millisecond, 0, 4)
	cl.VerifyRange(1600*des.Millisecond, 25*des.Millisecond, 0, 9)
}
