// Package tablestore is a miniature HBase-like table store built on the
// simulated cluster substrate: a master with a procedure executor, log
// splitting and replication-queue coordination; region servers with
// memstores, batch mutation, periodic flushes, an asynchronous WAL with
// roll/safe-point semantics, and replication sources shipping WAL files to
// a peer cluster.
//
// The package contains the bug patterns of the six HBase failures in the
// paper's dataset (Table 5): HB-18137 (f12), HB-19608 (f13), HB-19876
// (f14), HB-20583 (f15), HB-16144 (f16) and HB-25905 (f17) — the paper's
// motivating example, reproduced here with the same asynchronous-WAL
// mechanics (unacked appends, batch-limited sync, waitForSafePoint).
package tablestore

import (
	"fmt"
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
)

// Cluster is one simulated table-store deployment.
type Cluster struct {
	env    *cluster.Env
	Master *Master
	RSs    []*RegionServer
	peer   *PeerSink
}

// Options configure the deployment.
type Options struct {
	RegionServers   int
	WithReplication bool
	WithProcedures  bool
}

// NewCluster creates (but does not start) a deployment.
func NewCluster(env *cluster.Env, opts Options) *Cluster {
	if opts.RegionServers <= 0 {
		opts.RegionServers = 2
	}
	c := &Cluster{env: env}
	c.Master = newMaster(c, opts.WithProcedures)
	for i := 1; i <= opts.RegionServers; i++ {
		c.RSs = append(c.RSs, newRegionServer(c, i, opts.WithReplication))
	}
	if opts.WithReplication {
		c.peer = newPeerSink(c)
	}
	return c
}

// Start boots the master and region servers.
func (c *Cluster) Start() {
	c.Master.start()
	for _, rs := range c.RSs {
		rs.start()
	}
	if c.peer != nil {
		c.peer.start()
	}
}

// RS returns the region server with the given id.
func (c *Cluster) RS(id int) *RegionServer { return c.RSs[id-1] }

func (c *Cluster) msg(from, to, typ string, payload interface{}) simnet.Message {
	return simnet.Message{From: from, To: to, Type: typ, Payload: payload}
}

func rsName(id int) string { return "rs" + strconv.Itoa(id) }

const rpcTimeout = 300 * des.Millisecond

// Master coordinates region assignment, WAL splitting, replication-queue
// locks and procedures.
type Master struct {
	c    *Cluster
	name string

	withProcedures bool

	lastBeat map[string]des.Time
	dead     map[string]bool

	// locks is the coordination lock table (the ZooKeeper analog HBase
	// uses for replication queues); claimed records queues already copied.
	locks   map[string]string
	claimed map[string]bool

	// Split state (HB-20583).
	splitTasks     []*splitTask
	splitCompleted int
	lastFailedTask int

	// Procedure executor state (HB-19608).
	procFailedFlag bool
	procQueue      []*procedure
}

func newMaster(c *Cluster, withProcedures bool) *Master {
	return &Master{
		c: c, name: "hmaster",
		lastBeat:       make(map[string]des.Time),
		dead:           make(map[string]bool),
		locks:          make(map[string]string),
		claimed:        make(map[string]bool),
		withProcedures: withProcedures,
		lastFailedTask: -1,
	}
}

func (m *Master) env() *cluster.Env { return m.c.env }

func (m *Master) start() {
	env := m.env()
	net := env.Net
	net.Handle(m.name, "ts.heartbeat", "hmaster-rpc", m.onHeartbeat)
	net.Handle(m.name, "ts.acquire-lock", "hmaster-rpc", m.onAcquireLock)
	net.Handle(m.name, "ts.release-lock", "hmaster-rpc", m.onReleaseLock)
	net.Handle(m.name, "ts.split-done", "hmaster-split", m.onSplitDone)
	net.Handle(m.name, "ts.split-failed", "hmaster-split", m.onSplitFailed)
	net.Handle(m.name, "ts.mark-claimed", "hmaster-rpc", m.onMarkClaimed)

	env.Sim.Go("hmaster-main", func() {
		env.Log.Infof("Master starting, monitoring %d region servers", len(m.c.RSs))
		// Assign one region per server at startup.
		for _, rs := range m.c.RSs {
			target := rs
			err := env.Net.Send("ts.master.assign-region",
				m.c.msg(m.name, target.name, "ts.open-region", "region-"+target.name))
			if err != nil {
				env.Log.Warnf("Failed to assign region to %s: %s", target.name, err)
			}
		}
	})

	// Failure detector: a region server missing heartbeats is declared
	// dead, which triggers WAL splitting and replication-queue claims.
	env.Sim.Every("hmaster-monitor", 200*des.Millisecond, func() {
		now := env.Sim.Now()
		for _, rs := range m.c.RSs {
			if m.dead[rs.name] {
				continue
			}
			last, seen := m.lastBeat[rs.name]
			if !seen {
				continue // not yet reported
			}
			if now-last > 450*des.Millisecond {
				m.dead[rs.name] = true
				env.Log.Warnf("Region server %s expired, no heartbeat for %dms", rs.name, (now-last)/des.Millisecond)
				m.handleServerDeath(rs.name)
			}
		}
	})

	if m.withProcedures {
		env.Sim.Schedule("hmaster-proc", 300*des.Millisecond, func() {
			m.submitInitialProcedures()
		})
	}
}

func (m *Master) onHeartbeat(msg simnet.Message, _ func(interface{}, error)) {
	m.lastBeat[msg.From] = m.env().Sim.Now()
}

// handleServerDeath kicks off WAL splitting and tells survivors to claim
// the dead server's replication queue.
func (m *Master) handleServerDeath(dead string) {
	env := m.env()
	env.Log.Infof("Starting recovery of dead region server %s", dead)
	m.startSplit(dead)
	for _, rs := range m.c.RSs {
		if rs.name == dead || rs.aborted {
			continue
		}
		target := rs
		env.Sim.Go("hmaster-main", func() {
			err := env.Net.Send("ts.master.notify-claim", m.c.msg(m.name, target.name, "ts.claim-queue", dead))
			if err != nil {
				env.Log.Warnf("Failed to notify %s to claim queue of %s: %s", target.name, dead, err)
			}
		})
	}
}

// onAcquireLock serves the coordination lock table. HB-16144 (f16): locks
// have no owner liveness check, so a lock held by an aborted server lives
// forever.
func (m *Master) onAcquireLock(msg simnet.Message, respond func(interface{}, error)) {
	env := m.env()
	lock, _ := msg.Payload.(string)
	if m.claimed[lock] {
		respond("already-claimed", nil)
		return
	}
	if holder, held := m.locks[lock]; held && holder != msg.From {
		env.Log.Warnf("Lock %s requested by %s is held by %s", lock, msg.From, holder)
		respond(nil, fmt.Errorf("ts: lock %s held by %s", lock, holder))
		return
	}
	m.locks[lock] = msg.From
	env.Log.Debugf("Lock %s granted to %s", lock, msg.From)
	respond("ok", nil)
}

func (m *Master) onMarkClaimed(msg simnet.Message, _ func(interface{}, error)) {
	lock, _ := msg.Payload.(string)
	m.claimed[lock] = true
}

func (m *Master) onReleaseLock(msg simnet.Message, respond func(interface{}, error)) {
	env := m.env()
	lock, _ := msg.Payload.(string)
	if m.locks[lock] == msg.From {
		delete(m.locks, lock)
		env.Log.Debugf("Lock %s released by %s", lock, msg.From)
	}
	if respond != nil {
		respond("ok", nil)
	}
}
