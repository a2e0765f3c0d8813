package dyn

import (
	"errors"
	"sort"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
)

// Config shapes one dyn cluster: which nodes run, which of them are in
// the initial ring, the replication/quorum parameters, the virtual-node
// count per member, and the tombstone garbage-collection grace period.
type Config struct {
	Nodes   []string // every running node (may exceed the ring)
	Members []string // initial ring v1 membership
	N       int      // replicas per key
	R       int      // read quorum
	W       int      // write quorum
	VNodes  int      // virtual nodes per member
	GCGrace des.Time // tombstones older than this are purged
}

// Cluster is one running dyn deployment plus the harness-side bookkeeping
// the convergence audit needs: the acknowledged client state and the
// divergence timeline.
type Cluster struct {
	env    *cluster.Env
	cfg    Config
	names  []string // sorted node names
	nodes  []*Node  // the nodes, in names order
	byName map[string]*Node

	// Convergence audit state (see audit.go).
	acks           []ackRec // the acknowledged keys' records, sorted by key
	recheck        []string // the keys touched since the last tick
	apartKeys      int      // records last judged divergent
	auditRing      *Ring    // the ring the records' holders were resolved under
	everAgreed     bool
	divergent      bool
	divergentSince des.Time
	agreeSince     des.Time
	graceLogged    bool

	rec []byte // scratch for the log line being persisted, see record
}

// Node is one dyn storage node: its view of the ring, its versioned
// store, its causal contexts as a coordinator, and its hinted-handoff
// queue.
type Node struct {
	c     *Cluster
	name  string
	alive bool

	ring    *Ring
	store   map[string][]Version // sibling sets, kept sorted
	tombAt  map[string]des.Time  // when each key's tombstone was applied
	context map[string]VClock    // per-key causal context (coordinator role)

	gossipRound int
	pulled      map[int]bool // ring versions already pulled (or marked handled)
	pulling     map[int]bool // ring versions with a pull in flight

	hints []*hint

	commitLog, tombstoneLog, hintLog string // the node's log paths on the disk
}

var errNodeDown = errors.New("dyn: node is down")

// New builds and starts a dyn cluster inside env: nodes, handlers,
// gossip/GC/handoff loops, the convergence audit, and crash/restart
// controls for environment faults.
func New(env *cluster.Env, cfg Config) *Cluster {
	c := &Cluster{
		env:    env,
		cfg:    cfg,
		byName: make(map[string]*Node, len(cfg.Nodes)),
	}
	c.names = append(c.names, cfg.Nodes...)
	sort.Strings(c.names)
	c.nodes = make([]*Node, 0, len(c.names))
	// Every node starts on the same ring v1: one header, so the owners memo
	// one node fills answers the others (and the audit) too.
	ring := sharedRing(1, cfg.Members, cfg.VNodes)
	for _, name := range c.names {
		n := &Node{
			c:       c,
			name:    name,
			alive:   true,
			ring:    ring,
			store:   make(map[string][]Version),
			tombAt:  make(map[string]des.Time),
			context: make(map[string]VClock),
			pulled:  map[int]bool{1: true},
			pulling: make(map[int]bool),

			commitLog: name + "/commit.log", tombstoneLog: name + "/tombstones.log", hintLog: name + "/hints.log",
		}
		c.byName[name] = n
		c.nodes = append(c.nodes, n)
		net := env.Net
		net.Handle(n.name, "dyn.op", n.name+"-op", n.onOp)
		net.Handle(n.name, "dyn.store", n.name+"-store", n.onStore)
		net.Handle(n.name, "dyn.read", n.name+"-read", n.onRead)
		net.Handle(n.name, "dyn.digest", n.name+"-gossip", n.onDigest)
		net.Handle(n.name, "dyn.pullring", n.name+"-gossip", n.onPullRing)
		net.Handle(n.name, "dyn.transfer", n.name+"-migrate", n.onTransfer)
		net.Handle(n.name, "dyn.release", n.name+"-migrate", n.onRelease)
		node := n
		env.RegisterNode(n.name, cluster.NodeControl{
			Crash:   func() { node.alive = false },
			Restart: func() { node.alive = true },
		})
		n.startGossip()
		n.startHandoff()
		n.startGC()
	}
	c.startAudit()
	env.RegisterConvergence(c.convergence)
	return c
}

// startGC purges tombstones older than the grace period. A key whose only
// version is an old tombstone disappears entirely — which is exactly why
// a replica that missed the delete can later resurrect it. A tick on
// which no tombstone has aged past the grace period purges nothing, so
// it returns before sorting the keys.
func (n *Node) startGC() {
	env := n.c.env
	env.Sim.Every(n.name+"-gc", 250*des.Millisecond, func() {
		if !n.alive {
			return
		}
		now := env.Sim.Now()
		aged := false
		for _, at := range n.tombAt {
			if now-at >= n.c.cfg.GCGrace {
				aged = true
				break
			}
		}
		if !aged {
			return
		}
		for _, key := range sortedTimeKeys(n.tombAt) {
			if now-n.tombAt[key] < n.c.cfg.GCGrace {
				continue
			}
			set := n.store[key]
			switch {
			case len(set) == 0:
				delete(n.tombAt, key)
			case len(set) == 1 && set[0].Tomb:
				delete(n.store, key)
				delete(n.tombAt, key)
				n.c.touch(key)
				env.Log.Debugf("Purged tombstone of %s on %s", key, n.name)
			}
		}
	})
}

// record renders one "a b {clock}\n" line of a node's logs into the
// cluster's scratch buffer. The disk copies what it is handed, so the
// bytes are good until the next record.
func (c *Cluster) record(a, b string, vc VClock) []byte {
	rec := append(c.rec[:0], a...)
	rec = append(rec, ' ')
	rec = append(rec, b...)
	rec = append(rec, ' ')
	rec = append(vc.AppendTo(rec), '\n')
	c.rec = rec
	return rec
}

// applyVersion folds an incoming version into the node's store, persisting
// it first. Tombstones and records persist to separate logs.
func (n *Node) applyVersion(key string, in Version) error {
	env := n.c.env
	if in.Tomb {
		rec := n.c.record(key, "tombstone", in.VC)
		if err := env.Disk.Append("dyn.store.persist-tombstone", n.tombstoneLog, rec); err != nil {
			// Defect (f27 root): the failed tombstone persist is swallowed
			// and the delete acknowledged anyway, so this replica never
			// applies the tombstone and keeps serving the live value —
			// which read repair will later push back to the replicas that
			// did delete it.
			env.Log.Errorf("Tombstone persist for %s failed on %s; acknowledging delete anyway", key, n.name)
			return nil
		}
	} else {
		rec := n.c.record(key, in.Val, in.VC)
		if err := env.Disk.Append("dyn.store.persist-record", n.commitLog, rec); err != nil {
			env.Log.Warnf("Record persist for %s failed on %s", key, n.name)
			return err
		}
	}
	n.store[key] = addVersion(n.store[key], in)
	if in.Tomb {
		n.tombAt[key] = env.Sim.Now()
	}
	n.c.touch(key)
	return nil
}

// onStore applies a replicated version (quorum write, read repair, or
// hinted-handoff replay — they share the wire format).
func (n *Node) onStore(m simnet.Message, respond func(interface{}, error)) {
	if !n.alive {
		respond(nil, errNodeDown)
		return
	}
	req := m.Payload.(storeReq)
	if err := n.applyVersion(req.Key, req.Ver); err != nil {
		respond(nil, err)
		return
	}
	respond("ok", nil)
}

// onRead returns the node's sibling set for a key.
func (n *Node) onRead(m simnet.Message, respond func(interface{}, error)) {
	if !n.alive {
		respond(nil, errNodeDown)
		return
	}
	req := m.Payload.(readReq)
	respond(readResp{Vers: cloneVersions(n.store[req.Key])}, nil)
}

// onOp dispatches a client operation to the coordinator logic.
func (n *Node) onOp(m simnet.Message, respond func(interface{}, error)) {
	if !n.alive {
		respond(nil, errNodeDown)
		return
	}
	req := m.Payload.(opReq)
	switch req.Op {
	case "put":
		n.coordPut(req.Key, req.Val, false, respond)
	case "del":
		n.coordPut(req.Key, "", true, respond)
	default:
		n.coordGet(req.Key, respond)
	}
}

// cloneVersions copies a sibling slice: the versions are immutable and
// shared, but addVersion rewrites a store's slice in place, so whoever
// keeps a set past the current event needs a slice of its own.
func cloneVersions(set []Version) []Version {
	if len(set) == 0 {
		return nil
	}
	return append([]Version(nil), set...)
}

func sortedTimeKeys(m map[string]des.Time) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedVerKeys(m map[string][]Version) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedBatchKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
