package zk

import (
	"fmt"

	"anduril/internal/des"
	"anduril/internal/simnet"
)

// request is a client operation as shipped between servers.
type request struct {
	Op      string
	Path    string
	Value   string
	Session int64
}

func (r request) isWrite() bool { return r.Op == "create" || r.Op == "set" || r.Op == "delete" }

// onClientRequest serves a client session call. Followers forward both
// writes and sync reads to the leader, which is where the ZK-3157 (f2)
// defect lives: a forwarding failure for a write tears down the whole
// client session instead of retrying.
func (s *Server) onClientRequest(m simnet.Message, respond func(interface{}, error)) {
	if s.stopped {
		return
	}
	env := s.env()
	req, ok := m.Payload.(request)
	if !ok {
		respond(nil, fmt.Errorf("zk: malformed client request"))
		return
	}
	if req.Op == "connect" {
		sid := int64(s.id)*0x100000 + req.Session
		env.Log.Infof("Established session 0x%x with client %s on myid=%d", sid, m.From, s.id)
		respond(sid, nil)
		return
	}
	if req.Op == "ping" {
		respond("pong", nil)
		return
	}
	if s.role == roleLeading {
		s.processRequest(req, respond)
		return
	}
	if s.leaderID == 0 {
		respond(nil, fmt.Errorf("zk: no leader elected"))
		return
	}
	s.forwardToLeader(req, respond, 1)
}

// forwardToLeader relays a request over the follower's leader channel.
func (s *Server) forwardToLeader(req request, respond func(interface{}, error), attempt int) {
	env := s.env()
	if s.leaderID == 0 || s.leaderID == s.id {
		// Mid-election; try again shortly.
		if attempt < 6 {
			env.Sim.Schedule(s.actor("cnxn"), 250*des.Millisecond, func() {
				s.forwardToLeader(req, respond, attempt+1)
			})
			return
		}
		respond(nil, fmt.Errorf("zk: no leader elected"))
		return
	}
	leader := s.c.Servers[s.leaderID-1]
	env.Net.Call("zk.follower.forward-request", s.msg(leader.name, "zk.request", req),
		250*des.Millisecond, func(payload interface{}, err error) {
			if err != nil {
				if req.isWrite() && isConnectionFault(err) {
					// ZK-3157 defect: a broken leader channel during a write
					// closes the client session outright; the pending write's
					// outcome is unknown, and the session is not recoverable.
					env.Log.Warnf("Unexpected exception causing session 0x%x close: %s", req.Session, err)
					respond(nil, fmt.Errorf("session closed due to connection loss: %w", err))
					return
				}
				if attempt < 6 {
					env.Log.Warnf("Request forward to leader failed on myid=%d (attempt %d), retrying: %s", s.id, attempt, err)
					env.Sim.Schedule(s.actor("cnxn"), 250*des.Millisecond, func() {
						s.forwardToLeader(req, respond, attempt+1)
					})
					return
				}
				respond(nil, err)
				return
			}
			respond(payload, nil)
		})
}

// onForwardedRequest handles a request relayed by a follower to the leader.
func (s *Server) onForwardedRequest(m simnet.Message, respond func(interface{}, error)) {
	if s.stopped {
		return
	}
	req, ok := m.Payload.(request)
	if !ok {
		respond(nil, fmt.Errorf("zk: malformed forwarded request"))
		return
	}
	if s.role != roleLeading {
		respond(nil, fmt.Errorf("zk: not the leader"))
		return
	}
	s.processRequest(req, respond)
}

// processRequest runs on the leader: reads answer immediately; writes go
// through the quorum proposal pipeline.
func (s *Server) processRequest(req request, respond func(interface{}, error)) {
	env := s.env()
	if !req.isWrite() {
		val, ok := s.data[req.Path]
		if !ok {
			respond(nil, fmt.Errorf("zk: no node %s", req.Path))
			return
		}
		respond(val, nil)
		return
	}
	if s.pipelineDead {
		// ZK-2247: the request pipeline thread has died; requests are
		// accepted but never processed, so callers time out.
		env.Log.Debugf("Dropping request %s: request processor unavailable", req.Path)
		return
	}
	if !s.serving {
		// A leader without a synced quorum cannot commit anything yet.
		env.Log.Debugf("Leader not serving yet, dropping request %s", req.Path)
		return
	}
	s.zxid++
	txn := Txn{Zxid: s.zxid, Op: req.Op, Path: req.Path, Value: req.Value}
	s.pendingResp[txn.Zxid] = respond
	s.acks[txn.Zxid] = make(map[int]bool)
	s.pendingTxn(txn)
	env.Log.Debugf("Proposing zxid=0x%x %s %s", txn.Zxid, txn.Op, txn.Path)
	for _, p := range s.c.Servers {
		if p.id == s.id {
			self := p
			env.Sim.Go(s.actor("sync"), func() { self.processProposal(txn) })
			continue
		}
		err := env.Net.Send("zk.leader.send-proposal", s.msg(p.name, "zk.proposal", txn))
		if err != nil {
			env.Log.Warnf("Failed to send proposal zxid=0x%x to zk%d: %s", txn.Zxid, p.id, err)
		}
	}
}

// onProposal is the follower-side proposal handler: hand the txn to the
// sync processor thread.
func (s *Server) onProposal(m simnet.Message, _ func(interface{}, error)) {
	if s.stopped {
		return
	}
	txn, ok := m.Payload.(Txn)
	if !ok {
		return
	}
	env := s.env()
	env.Sim.Go(s.actor("sync"), func() { s.processProposal(txn) })
}

// processProposal is the SyncRequestProcessor: write the txn to the
// transaction log, then ack the leader. This hosts the ZK-2247 (f1)
// defect: a transaction-log write error kills the processor thread but
// leaves the process up; on the leader, the dead pipeline also stops the
// commit processor, making the whole ensemble unavailable.
func (s *Server) processProposal(txn Txn) {
	if s.stopped || s.pipelineDead {
		return
	}
	if s.role != roleLeading && (s.role != roleFollowing || !s.syncedWithLeader || s.leaderID == 0) {
		return // not yet part of the leader's quorum
	}
	env := s.env()
	if err := s.appendTxn(txn); err != nil {
		env.Log.Errorf("Severe unrecoverable error, exiting SyncRequestProcessor on myid=%d: %s", s.id, err)
		s.pipelineDead = true
		return
	}
	if s.role == roleLeading {
		s.recordAck(txn.Zxid, s.id)
		return
	}
	err := env.Net.Send("zk.sync.send-ack", s.msg(s.c.Servers[s.leaderID-1].name, "zk.ack", ackMsg{Zxid: txn.Zxid, From: s.id}))
	if err != nil {
		env.Log.Warnf("Failed to send ack zxid=0x%x from myid=%d: %s", txn.Zxid, s.id, err)
	}
	s.pendingTxn(txn)
}

type ackMsg struct {
	Zxid int64
	From int
}

// pendingTxn caches a proposed txn until its commit arrives.
func (s *Server) pendingTxn(txn Txn) {
	if s.pending == nil {
		s.pending = make(map[int64]Txn)
	}
	s.pending[txn.Zxid] = txn
}

func (s *Server) onAck(m simnet.Message, _ func(interface{}, error)) {
	if s.stopped {
		return
	}
	a, ok := m.Payload.(ackMsg)
	if !ok {
		return
	}
	s.recordAck(a.Zxid, a.From)
}

// recordAck runs on the leader; a quorum of acks commits the txn.
func (s *Server) recordAck(zxid int64, from int) {
	if s.role != roleLeading {
		return
	}
	env := s.env()
	if s.pipelineDead {
		// ZK-2247: the commit processor shares the dead pipeline thread.
		env.Log.Debugf("Dropping ack zxid=0x%x: commit processor unavailable", zxid)
		return
	}
	set := s.acks[zxid]
	if set == nil {
		return // already committed
	}
	set[from] = true
	if len(set) < s.c.Quorum() {
		return
	}
	delete(s.acks, zxid)
	env.Log.Infof("Committing zxid=0x%x", zxid)
	txn := s.pending[zxid]
	delete(s.pending, zxid)
	s.applyTxn(txn)
	for _, p := range s.c.Servers {
		if p.id == s.id {
			continue
		}
		err := env.Net.Send("zk.leader.send-commit", s.msg(p.name, "zk.commit", zxid))
		if err != nil {
			env.Log.Warnf("Failed to send commit zxid=0x%x to zk%d: %s", zxid, p.id, err)
		}
	}
	if respond := s.pendingResp[zxid]; respond != nil {
		delete(s.pendingResp, zxid)
		respond("ok", nil)
	}
}

func (s *Server) onCommit(m simnet.Message, _ func(interface{}, error)) {
	if s.stopped {
		return
	}
	zxid, ok := m.Payload.(int64)
	if !ok {
		return
	}
	txn, ok := s.pending[zxid]
	if !ok {
		return
	}
	delete(s.pending, zxid)
	s.applyTxn(txn)
}

func (s *Server) applyTxn(txn Txn) {
	env := s.env()
	switch txn.Op {
	case "create", "set":
		s.data[txn.Path] = txn.Value
	case "delete":
		delete(s.data, txn.Path)
	}
	if txn.Zxid > s.zxid {
		s.zxid = txn.Zxid
	}
	env.Log.Debugf("Applied zxid=0x%x %s %s on myid=%d", txn.Zxid, txn.Op, txn.Path, s.id)
}
