package zk

import (
	"errors"

	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// Op is one scripted client operation.
type Op struct {
	Kind  string // "create" | "set" | "get" | "delete"
	Path  string
	Value string
}

// Client is a scripted session against one ensemble member.
type Client struct {
	c         *Cluster
	name      string
	server    *Server
	session   int64
	ops       []Op
	idx       int
	stopPings func()
}

// NewClient creates a client that talks to server id.
func (c *Cluster) NewClient(name string, serverID int, ops []Op) *Client {
	return &Client{c: c, name: name, server: c.Servers[serverID-1], ops: ops}
}

// Run connects the session and then executes the scripted operations
// sequentially, retrying each once on timeout before declaring the server
// unavailable — the client-visible symptom of ZK-2247 (f1).
func (cl *Client) Run(startDelay des.Time) {
	env := cl.c.env
	env.Sim.Schedule(cl.name, startDelay, cl.connect)
}

func (cl *Client) connect() {
	env := cl.c.env
	env.Net.Call("zk.client.connect", simnet.Message{
		From: cl.name, To: cl.server.name, Type: "zk.client-req",
		Payload: request{Op: "connect", Session: 1},
	}, 300*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			env.Log.Warnf("Client %s could not establish session, retrying: %s", cl.name, err)
			env.Sim.Schedule(cl.name, 200*des.Millisecond, cl.connect)
			return
		}
		cl.session = payload.(int64)
		env.Log.Infof("Client %s session established: 0x%x", cl.name, cl.session)
		cl.startPings()
		cl.nextOp(0)
	})
}

// startPings keeps the session alive; repeated ping failures expire it and
// trigger a reconnect, as the real client library does.
func (cl *Client) startPings() {
	env := cl.c.env
	if cl.stopPings != nil {
		cl.stopPings() // a reconnect replaces the previous ping loop
	}
	misses := 0
	cl.stopPings = env.Sim.Every(cl.name+"-ping", 120*des.Millisecond, func() {
		if cl.idx >= len(cl.ops) {
			return // workload done; session idles out naturally
		}
		env.Net.Call("zk.client.ping", simnet.Message{
			From: cl.name, To: cl.server.name, Type: "zk.client-req",
			Payload: request{Op: "ping", Session: cl.session},
		}, 200*des.Millisecond, func(_ interface{}, err error) {
			if err != nil {
				misses++
				env.Log.Warnf("Client %s session ping missed (%d in a row)", cl.name, misses)
				if misses >= 3 {
					env.Log.Warnf("Client %s session 0x%x expired, reconnecting", cl.name, cl.session)
					misses = 0
					cl.connect()
				}
				return
			}
			misses = 0
		})
	})
}

func (cl *Client) nextOp(attempt int) {
	env := cl.c.env
	if cl.idx >= len(cl.ops) {
		env.Log.Infof("Client %s finished workload (%d ops)", cl.name, len(cl.ops))
		return
	}
	op := cl.ops[cl.idx]
	env.Net.Call("zk.client.request", simnet.Message{
		From: cl.name, To: cl.server.name, Type: "zk.client-req",
		Payload: request{Op: op.Kind, Path: op.Path, Value: op.Value, Session: cl.session},
	}, 400*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			if isTimeout(err) && attempt < 1 {
				env.Log.Warnf("Client %s operation %s %s timed out, retrying", cl.name, op.Kind, op.Path)
				env.Sim.Schedule(cl.name, 100*des.Millisecond, func() { cl.nextOp(attempt + 1) })
				return
			}
			if isTimeout(err) {
				env.Log.Errorf("Client %s request %s timed out; server unavailable", cl.name, op.Path)
			} else {
				env.Log.Errorf("Client %s session expired; client failed with connection loss: %s", cl.name, err)
			}
			return // client gives up: the workload's failure endpoint
		}
		env.Log.Debugf("Client %s completed %s %s", cl.name, op.Kind, op.Path)
		cl.idx++
		env.Sim.Schedule(cl.name, 30*des.Millisecond, func() { cl.nextOp(0) })
	})
}

func isTimeout(err error) bool {
	return errors.Is(err, inject.KindErr(inject.Timeout))
}
