// Package zk is a miniature ZooKeeper-like replicated coordination service
// built on the simulated cluster substrate. It implements leader election,
// quorum-committed writes with a synchronous transaction log, periodic
// snapshots, and client sessions.
//
// The package deliberately contains the bug patterns of the four ZooKeeper
// failures in the paper's dataset (Table 5): ZK-2247 (f1), ZK-3157 (f2),
// ZK-4203 (f3) and ZK-3006 (f4). Each bug lies dormant until the right
// fault is injected at the right dynamic occurrence, exactly like the
// production incidents.
package zk

import (
	"fmt"
	"strconv"
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// Roles a server can be in.
const (
	roleLooking   = "LOOKING"
	roleLeading   = "LEADING"
	roleFollowing = "FOLLOWING"
)

// Txn is one replicated state-machine operation.
type Txn struct {
	Zxid  int64
	Op    string // "create" | "set" | "delete"
	Path  string
	Value string
}

// appendTxnRecord encodes one txn record ("zxid|op|path|value\n") into b,
// byte-identical to the old fmt.Sprintf form but without per-record
// allocations — the log is appended on every replicated write.
func appendTxnRecord(b []byte, t Txn) []byte {
	b = strconv.AppendInt(b, t.Zxid, 10)
	b = append(b, '|')
	b = append(b, t.Op...)
	b = append(b, '|')
	b = append(b, t.Path...)
	b = append(b, '|')
	b = append(b, t.Value...)
	return append(b, '\n')
}

func decodeTxn(line string) (Txn, bool) {
	parts := strings.SplitN(line, "|", 4)
	if len(parts) != 4 {
		return Txn{}, false
	}
	var zxid int64
	if _, err := fmt.Sscanf(parts[0], "%d", &zxid); err != nil {
		return Txn{}, false
	}
	return Txn{Zxid: zxid, Op: parts[1], Path: parts[2], Value: parts[3]}, true
}

// Cluster is a set of zk servers sharing one simulated environment.
type Cluster struct {
	env     *cluster.Env
	Servers []*Server
	n       int
}

// NewCluster creates (but does not start) an n-server ensemble. Every
// server is registered for crash/restart environment faults: a crash
// kills the current incarnation's loops without graceful shutdown, and
// the restart boots a fresh incarnation from the surviving on-disk state.
func NewCluster(env *cluster.Env, n int) *Cluster {
	c := &Cluster{env: env, n: n}
	for i := 1; i <= n; i++ {
		c.Servers = append(c.Servers, newServer(c, i))
	}
	for i := 1; i <= n; i++ {
		id := i
		env.RegisterNode(c.Servers[id-1].name, cluster.NodeControl{
			Crash:   func() { c.Servers[id-1].crash() },
			Restart: func() { c.reincarnate(id) },
		})
	}
	return c
}

// Quorum returns the majority size.
func (c *Cluster) Quorum() int { return c.n/2 + 1 }

// Start boots every server.
func (c *Cluster) Start() {
	for _, s := range c.Servers {
		s.start()
	}
}

// Leader returns the current leader server, if one is established.
func (c *Cluster) Leader() (*Server, bool) {
	for _, s := range c.Servers {
		if s.role == roleLeading && s.serving {
			return s, true
		}
	}
	return nil, false
}

// Restart stops server id and boots a fresh incarnation reading the same
// on-disk state (the same node name, so logs stay thread-stable).
func (c *Cluster) Restart(id int) {
	old := c.Servers[id-1]
	old.stop()
	c.reincarnate(id)
}

// reincarnate boots a fresh incarnation of server id from its on-disk
// state without gracefully stopping the old one — the restart half of a
// crash environment fault, where the dead incarnation has nothing left
// to say.
func (c *Cluster) reincarnate(id int) {
	fresh := newServer(c, id)
	c.Servers[id-1] = fresh
	fresh.start()
}

// Server is one zk ensemble member.
type Server struct {
	c    *Cluster
	id   int
	name string // node & base actor name, e.g. "zk1"

	stopped bool
	role    string
	epoch   int64
	zxid    int64

	// Election state.
	voteFor          int
	votes            map[int]int // voter -> candidate
	leaderID         int
	acceptDead       bool // latent defect: the follower-acceptor thread has died
	electionDead     bool // ZK-4203: the election connection manager has died
	synced           map[int]bool
	serving          bool
	syncedWithLeader bool

	// Replication state.
	data         map[string]string
	pending      map[int64]Txn
	pipelineDead bool // ZK-2247: the sync/request pipeline has died
	acks         map[int64]map[int]bool
	pendingResp  map[int64]func(interface{}, error)
	lastSnapZxid int64

	connectTries int

	// Persistence hot-path scratch: the txn-log path is fixed per server,
	// and scratch is the reusable encode buffer for txn records and
	// snapshot bodies (simdisk copies on Append, so reuse is safe).
	txnLog  string
	scratch []byte

	// snapPath memoizes the last rendered snapshot path: the replication
	// path re-renders the same zxid's path on every commit check.
	snapPath     string
	snapPathZxid int64

	// actors caches "name-thread" actor strings; the handful of thread
	// names recur on every timer tick and message send.
	actors map[string]string
}

func newServer(c *Cluster, id int) *Server {
	name := "zk" + strconv.Itoa(id)
	s := &Server{
		c:           c,
		id:          id,
		name:        name,
		txnLog:      name + "/txnlog",
		role:        roleLooking,
		data:        make(map[string]string),
		votes:       make(map[int]int),
		synced:      make(map[int]bool),
		acks:        make(map[int64]map[int]bool),
		pendingResp: make(map[int64]func(interface{}, error)),
		actors:      make(map[string]string, 8),
	}
	return s
}

func (s *Server) env() *cluster.Env { return s.c.env }

// actor returns a thread name of this server, e.g. "zk1-sync". Names are
// cached per server: the same few threads recur on every tick and send.
func (s *Server) actor(thread string) string {
	a, ok := s.actors[thread]
	if !ok {
		a = s.name + "-" + thread
		s.actors[thread] = a
	}
	return a
}

func (s *Server) start() {
	env := s.env()
	s.registerHandlers()
	env.Sim.Go(s.actor("main"), func() {
		env.Log.Infof("Starting quorum peer myid=%d", s.id)
		if err := s.loadDatabase(); err != nil {
			env.Log.Errorf("Unable to load database on disk: %s", err)
			env.Log.Errorf("Severe error starting quorum peer, shutting down myid=%d", s.id)
			s.stopped = true
			return
		}
		s.startElection()
	})
	// Periodic snapshots once serving.
	env.Sim.Every(s.actor("snapshot"), 150*des.Millisecond, func() {
		if s.stopped || !s.serving && s.role != roleFollowing {
			return
		}
		if err := s.takeSnapshot(); err != nil {
			env.Log.Errorf("Error while taking snapshot on myid=%d: %s", s.id, err)
			// ZK-3006 defect: the truncated snapshot file is left on disk.
		}
	})
	// Leader pings followers to detect liveness.
	env.Sim.Every(s.actor("ping"), 50*des.Millisecond, func() {
		if s.stopped || s.role != roleLeading {
			return
		}
		for _, p := range s.c.Servers {
			if p.id == s.id {
				continue
			}
			err := env.Net.Send("zk.leader.ping-follower", s.msg(p.name, "zk.ping", s.epoch))
			if err != nil {
				env.Log.Warnf("Failed to ping follower zk%d: %s", p.id, err)
			}
		}
	})

	// Snapshot purger: keep only the newest few snapshots on disk, like
	// ZooKeeper's autopurge.
	env.Sim.Every(s.actor("purge"), 600*des.Millisecond, func() {
		if s.stopped {
			return
		}
		snaps := env.Disk.List(s.name + "/snapshot.")
		for len(snaps) > 3 {
			victim := snaps[0]
			snaps = snaps[1:]
			if err := env.Disk.Delete("zk.snap.purge-old", victim); err != nil {
				env.Log.Warnf("Could not purge old snapshot %s: %s", victim, err)
				return
			}
			env.Log.Debugf("Purged old snapshot %s", victim)
		}
	})
}

func (s *Server) stop() {
	s.stopped = true
	s.env().Log.Infof("Shutting down quorum peer myid=%d", s.id)
}

// crash models a process kill: the incarnation's loops stop, and unlike
// stop there is no graceful-shutdown logging — a killed process says
// nothing on the way down.
func (s *Server) crash() { s.stopped = true }

func (s *Server) msg(to, typ string, payload interface{}) simnet.Message {
	return simnet.Message{From: s.name, To: to, Type: typ, Payload: payload}
}

// isConnectionFault reports whether err is a broken-channel class fault
// (as opposed to a timeout or an application-level error).
func isConnectionFault(err error) bool {
	f, ok := inject.AsFault(err)
	return ok && (f.Kind == inject.Socket || f.Kind == inject.Connection)
}
