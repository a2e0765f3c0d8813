// Package kvstore is a miniature Cassandra-like replicated key-value store
// built on the simulated cluster substrate: a small ring with gossip,
// quorum writes, memtable flushes/compactions, anti-entropy repair with a
// snapshot phase, and file streaming over a shared channel proxy.
//
// The package contains the bug patterns of the two Cassandra failures in
// the paper's dataset (Table 5): C*-17663 (f21) and C*-6415 (f22).
package kvstore

import (
	"fmt"
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
	"anduril/internal/textrec"
)

// Horizon is how much virtual time the kvstore workloads need.
const Horizon = 3 * des.Second

// Ring is one simulated deployment.
type Ring struct {
	env   *cluster.Env
	Nodes []*Node

	// proxy is the shared channel proxy used by every file-stream task.
	// C*-17663 (f21): an interrupted task leaves it in an invalid state
	// that every later streaming attempt trips over.
	proxyCorrupt bool
}

// Node is one ring member.
type Node struct {
	r    *Ring
	id   int
	name string

	data     map[string]string
	memtable int
}

// NewRing creates (but does not start) an n-node ring.
func NewRing(env *cluster.Env, n int) *Ring {
	r := &Ring{env: env}
	for i := 1; i <= n; i++ {
		r.Nodes = append(r.Nodes, &Node{r: r, id: i, name: "cs" + strconv.Itoa(i), data: make(map[string]string)})
	}
	return r
}

// Start boots every node: handlers, gossip and compaction loops.
func (r *Ring) Start() {
	env := r.env
	for _, n := range r.Nodes {
		node := n
		net := env.Net
		net.Handle(node.name, "cs.write", node.name+"-mutation", node.onWrite)
		net.Handle(node.name, "cs.read", node.name+"-read", node.onRead)
		net.Handle(node.name, "cs.gossip", node.name+"-gossip", node.onGossip)
		net.Handle(node.name, "cs.make-snapshot", node.name+"-repair", node.onMakeSnapshot)
		net.Handle(node.name, "cs.stream-file", node.name+"-stream", node.onStreamFile)

		env.Sim.Go(node.name+"-main", func() {
			env.Log.Infof("Node %s joining ring with %d peers", node.name, len(r.Nodes)-1)
		})

		env.Sim.Every(node.name+"-gossip", 100*des.Millisecond, func() {
			peer := r.Nodes[(node.id+int(env.Sim.Now()/des.Millisecond))%len(r.Nodes)]
			if peer.name == node.name {
				peer = r.Nodes[node.id%len(r.Nodes)]
			}
			err := env.Net.Send("cs.gossip.send", simnet.Message{
				From: node.name, To: peer.name, Type: "cs.gossip", Payload: node.id,
			})
			if err != nil {
				env.Log.Warnf("Gossip from %s to %s failed: %s", node.name, peer.name, err)
			}
		})

		env.Sim.Every(node.name+"-compaction", 350*des.Millisecond, func() {
			if node.memtable == 0 {
				return
			}
			path := node.name + "/sstable-" + strconv.Itoa(int(env.Sim.Now()/des.Millisecond))
			if err := env.Disk.Write("cs.compaction.write-sstable", path, []byte(strconv.Itoa(node.memtable)+" rows\n")); err != nil {
				env.Log.Warnf("Compaction on %s failed, will retry: %s", node.name, err)
				return
			}
			env.Log.Debugf("Flushed memtable of %d rows to %s", node.memtable, path)
			node.memtable = 0
		})
	}
}

func (n *Node) env() *cluster.Env { return n.r.env }

func (n *Node) onWrite(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	kv, ok := m.Payload.([2]string)
	if !ok {
		respond(nil, fmt.Errorf("cs: malformed write"))
		return
	}
	if err := env.Disk.Append("cs.node.append-commitlog", n.name+"/commitlog", []byte(kv[0]+"="+kv[1]+"\n")); err != nil {
		env.Log.Errorf("Commit log append failed on %s: %s", n.name, err)
		respond(nil, err)
		return
	}
	n.data[kv[0]] = kv[1]
	n.memtable++
	respond("ok", nil)
}

func (n *Node) onRead(m simnet.Message, respond func(interface{}, error)) {
	key, _ := m.Payload.(string)
	val, ok := n.data[key]
	if !ok {
		respond(nil, fmt.Errorf("cs: no such key %s", key))
		return
	}
	respond(val, nil)
}

func (n *Node) onGossip(m simnet.Message, _ func(interface{}, error)) {
	// Membership heartbeat; realistic background noise.
}

// onMakeSnapshot serves the repair coordinator's snapshot request.
// C*-6415 (f22): a failure while taking the snapshot is swallowed — the
// replica never responds, and the coordinator waits without any timeout.
func (n *Node) onMakeSnapshot(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	session, _ := m.Payload.(string)
	if err := env.FI.Reach("cs.repair.make-snapshot", inject.IO); err != nil {
		env.Log.Errorf("Snapshot for %s failed on %s", session, n.name)
		return // defect: no reply, and the coordinator has no timeout
	}
	path := n.name + "/snapshots/" + session
	if err := env.Disk.Write("cs.repair.write-snapshot", path, []byte("snapshot\n")); err != nil {
		env.Log.Errorf("Snapshot file write for %s failed on %s: %s", session, n.name, err)
		return
	}
	env.Log.Infof("Snapshot for %s taken on %s", session, n.name)
	respond("ok", nil)
}

// onStreamFile receives one streamed file during repair.
func (n *Node) onStreamFile(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	name, _ := m.Payload.(string)
	if err := env.Disk.Write("cs.stream.write-received", n.name+"/streamed/"+name, []byte("data\n")); err != nil {
		env.Log.Errorf("Receiving streamed file %s failed on %s: %s", name, n.name, err)
		respond(nil, err)
		return
	}
	env.Log.Debugf("Node %s received streamed file %s", n.name, name)
	respond("ok", nil)
}

// hint is a write destined for a replica that was unreachable; it is
// stored durably and replayed when the replica returns (hinted handoff).
type hint struct {
	node string
	key  string
	val  string
}

// Client performs quorum writes through a coordinator node, with hinted
// handoff for unreachable replicas.
type Client struct {
	r     *Ring
	name  string
	hints []hint
}

// NewClient creates a named client and starts its hint-replay loop.
func (r *Ring) NewClient(name string) *Client {
	cl := &Client{r: r, name: name}
	r.env.Sim.Every(name+"-hints", 250*des.Millisecond, func() {
		cl.replayHints()
	})
	return cl
}

// storeHint persists a missed write for later delivery.
func (cl *Client) storeHint(node, key, val string) {
	env := cl.r.env
	rec := node + "|" + key + "=" + val + "\n"
	if err := env.Disk.Append("cs.client.store-hint", cl.name+"/hints", []byte(rec)); err != nil {
		env.Log.Warnf("Could not store hint for %s: %s", node, err)
		return
	}
	cl.hints = append(cl.hints, hint{node: node, key: key, val: val})
	env.Log.Infof("Stored hint for %s: %s", node, key)
}

// replayHints redelivers pending hints to replicas that have recovered.
func (cl *Client) replayHints() {
	env := cl.r.env
	if len(cl.hints) == 0 {
		return
	}
	h := cl.hints[0]
	env.Net.Call("cs.client.replay-hint", simnet.Message{
		From: cl.name, To: h.node, Type: "cs.write", Payload: [2]string{h.key, h.val},
	}, 200*des.Millisecond, func(_ interface{}, err error) {
		if err != nil {
			env.Log.Debugf("Hint replay to %s still failing: %s", h.node, err)
			return
		}
		cl.hints = cl.hints[1:]
		env.Log.Infof("Replayed hint to %s: %s (%d pending)", h.node, h.key, len(cl.hints))
	})
}

// WriteLoop issues count quorum writes at the given interval, then runs a
// read-repair verification pass over a sample of keys.
func (cl *Client) WriteLoop(interval des.Time, count int) {
	env := cl.r.env
	i := 0
	var step func()
	step = func() {
		if i >= count {
			env.Log.Infof("Client %s finished %d quorum writes", cl.name, count)
			cl.readRepair(0, count)
			return
		}
		key := textrec.Padded("k", i, 3)
		val := textrec.Padded("v", i, 3)
		i++
		acks := 0
		responded := false
		kv := interface{}([2]string{key, val}) // one box for every replica
		for _, node := range cl.r.Nodes {
			target := node
			env.Net.Call("cs.client.write-rpc", simnet.Message{
				From: cl.name, To: target.name, Type: "cs.write", Payload: kv,
			}, 250*des.Millisecond, func(_ interface{}, err error) {
				if err != nil {
					env.Log.Warnf("Write of %s to %s failed: %s", key, target.name, err)
					cl.storeHint(target.name, key, val)
					return
				}
				acks++
				if acks >= 2 && !responded {
					responded = true
					env.Log.Debugf("Quorum write of %s achieved", key)
				}
			})
		}
		env.Sim.Schedule(cl.name, interval, step)
	}
	env.Sim.Go(cl.name, step)
}

// readRepair reads every fourth key from two replicas and repairs any
// divergence — the digest-mismatch path of a real coordinator.
func (cl *Client) readRepair(i, count int) {
	env := cl.r.env
	if i >= count {
		env.Log.Infof("Client %s read-repair pass complete", cl.name)
		return
	}
	key := textrec.Padded("k", i, 3)
	a := cl.r.Nodes[i%len(cl.r.Nodes)]
	b := cl.r.Nodes[(i+1)%len(cl.r.Nodes)]
	env.Net.Call("cs.client.read-digest", simnet.Message{
		From: cl.name, To: a.name, Type: "cs.read", Payload: key,
	}, 250*des.Millisecond, func(va interface{}, errA error) {
		env.Net.Call("cs.client.read-repair", simnet.Message{
			From: cl.name, To: b.name, Type: "cs.read", Payload: key,
		}, 250*des.Millisecond, func(vb interface{}, errB error) {
			if errA == nil && errB == nil && va != vb {
				env.Log.Warnf("Digest mismatch for %s between %s and %s, repairing", key, a.name, b.name)
			}
			env.Sim.Schedule(cl.name, 15*des.Millisecond, func() { cl.readRepair(i+4, count) })
		})
	})
}

// Repair runs one anti-entropy repair session from the given coordinator:
// snapshot phase on every replica (no timeout — f22), then merkle diff,
// then file streaming through the shared channel proxy (f21).
func (r *Ring) Repair(session string, coordinatorID int, delay des.Time) {
	env := r.env
	coord := r.Nodes[coordinatorID-1]
	actor := coord.name + "-repair"
	env.Sim.Schedule(actor, delay, func() {
		env.Log.Infof("Repair session %s started on keyspace ks1 by %s", session, coord.name)
		pending := len(r.Nodes)
		await := des.NewCond(env.Sim, "await-snapshot-responses")
		for _, node := range r.Nodes {
			target := node
			env.Net.Call("cs.repair.snapshot-rpc", simnet.Message{
				From: coord.name, To: target.name, Type: "cs.make-snapshot", Payload: session,
			}, 0 /* no timeout: the defect */, func(_ interface{}, err error) {
				if err != nil {
					env.Log.Errorf("Snapshot request to %s failed for %s: %s", target.name, session, err)
					return
				}
				pending--
				if pending == 0 {
					await.Broadcast()
				}
			})
		}
		await.Wait(actor, func() {
			env.Log.Infof("All snapshots for %s complete, computing merkle differences", session)
			r.streamDifferences(session, coord, 0)
		})
	})
}

// streamDifferences streams the mismatched files between replicas, one
// task at a time, through the shared channel proxy.
func (r *Ring) streamDifferences(session string, coord *Node, idx int) {
	env := r.env
	files := []string{"diff-0.db", "diff-1.db", "diff-2.db"}
	if idx >= len(files) {
		env.Log.Infof("Repair session %s completed successfully", session)
		return
	}
	actor := coord.name + "-stream"
	env.Sim.Schedule(actor, 20*des.Millisecond, func() {
		if r.proxyCorrupt {
			// Defect (C*-17663): the shared proxy was never repaired after
			// an earlier failed task; every further stream attempt dies.
			env.Log.Errorf("Stream session %s failed: channel proxy in invalid state", session)
			return
		}
		if err := env.FI.Reach("cs.stream.file-task", inject.Interrupted); err != nil {
			env.Log.Errorf("File stream task %s failed for %s; channel proxy left in invalid state",
				files[idx], session)
			r.proxyCorrupt = true
			// Retry the session's streaming — which now trips the proxy.
			r.streamDifferences(session, coord, idx)
			return
		}
		target := r.Nodes[(coord.id+idx)%len(r.Nodes)]
		env.Net.Call("cs.stream.send-file", simnet.Message{
			From: coord.name, To: target.name, Type: "cs.stream-file", Payload: files[idx],
		}, 250*des.Millisecond, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Streaming %s to %s failed, retrying: %s", files[idx], target.name, err)
				r.streamDifferences(session, coord, idx)
				return
			}
			env.Log.Infof("Streamed %s to %s for %s", files[idx], target.name, session)
			r.streamDifferences(session, coord, idx+1)
		})
	})
}

// WorkloadRepair is the driving workload for f21 (C*-17663) and f22
// (C*-6415): background quorum writes plus a repair session.
func WorkloadRepair(env *cluster.Env) {
	r := NewRing(env, 3)
	r.Start()
	cl := r.NewClient("cs-client-1")
	env.Sim.Schedule("cs-client-1", 150*des.Millisecond, func() {
		cl.WriteLoop(30*des.Millisecond, 30)
	})
	// A transient blip takes cs3 offline mid-writes (an environmental
	// fault, like a GC pause): writes to it fail, hints accumulate and are
	// replayed once it returns. This is the kind of tolerated noise a
	// production failure log is full of.
	env.Sim.Schedule("harness", 350*des.Millisecond, func() {
		env.Log.Warnf("Node cs3 became unreachable")
		env.Net.SetDown("cs3", true)
	})
	env.Sim.Schedule("harness", 560*des.Millisecond, func() {
		env.Net.SetDown("cs3", false)
		env.Log.Infof("Node cs3 is reachable again")
	})
	r.Repair("repair-1", 1, 800*des.Millisecond)
}
