package zk

import (
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// vote is a fast-leader-election notification. State carries the sender's
// role so peers can distinguish fresh ballots from authoritative reminders.
type vote struct {
	Epoch     int64
	Zxid      int64
	Candidate int
	Voter     int
	State     string
}

// registerHandlers wires the server's message handlers onto the network.
// Re-registering after a restart overwrites the previous incarnation's
// handlers, so a restarted node keeps its thread names.
func (s *Server) registerHandlers() {
	env := s.env()
	env.Net.Handle(s.name, "zk.vote", s.actor("quorum"), s.onVote)
	env.Net.Handle(s.name, "zk.follower-info", s.actor("quorum"), s.onFollowerInfo)
	env.Net.Handle(s.name, "zk.proposal", s.actor("quorum"), s.onProposal)
	env.Net.Handle(s.name, "zk.ack", s.actor("quorum"), s.onAck)
	env.Net.Handle(s.name, "zk.commit", s.actor("quorum"), s.onCommit)
	env.Net.Handle(s.name, "zk.request", s.actor("cnxn"), s.onForwardedRequest)
	env.Net.Handle(s.name, "zk.client-req", s.actor("cnxn"), s.onClientRequest)
	env.Net.Handle(s.name, "zk.ping", s.actor("quorum"), s.onPing)
}

// startElection begins a new leader-election round.
func (s *Server) startElection() {
	if s.stopped {
		return
	}
	env := s.env()
	s.role = roleLooking
	s.serving = false
	s.syncedWithLeader = false
	s.leaderID = 0
	s.epoch++
	s.voteFor = s.id
	s.votes = map[int]int{s.id: s.id}
	env.Log.Infof("New election round on myid=%d, proposed zxid=0x%x epoch=%d", s.id, s.zxid, s.epoch)
	s.broadcastVote()
	// If the round stalls (lost votes, a deaf connection manager on the
	// would-be leader, ...), start over; production ZooKeeper does too.
	env.Sim.Schedule(s.actor("quorum"), 500*des.Millisecond, func() {
		if !s.stopped && s.role == roleLooking {
			env.Log.Warnf("Election round timed out on myid=%d, starting new round", s.id)
			s.startElection()
		}
	})
}

func (s *Server) broadcastVote() {
	env := s.env()
	for _, p := range s.c.Servers {
		if p.id == s.id {
			continue
		}
		v := vote{Epoch: s.epoch, Zxid: s.zxid, Candidate: s.voteFor, Voter: s.id, State: s.role}
		err := env.Net.Send("zk.election.send-vote", s.msg(p.name, "zk.vote", v))
		if err != nil {
			env.Log.Warnf("Failed to send election notification to zk%d: %s", p.id, err)
		}
	}
}

// onVote is the election connection manager's receive loop — the fault
// boundary of ZK-4203 (f3). An I/O fault while accepting an election
// connection kills the whole connection manager on this server (the
// defective design in the real incident): the server can still send votes
// but never hears another one, so an election waiting on it stalls forever.
func (s *Server) onVote(m simnet.Message, _ func(interface{}, error)) {
	if s.stopped || s.electionDead {
		return
	}
	env := s.env()
	if err := env.FI.Reach("zk.election.accept-connection", inject.IO); err != nil {
		env.Log.Errorf("Exception while listening for election connections on myid=%d: %s; connection manager exiting", s.id, err)
		s.electionDead = true
		return
	}
	v, ok := m.Payload.(vote)
	if !ok {
		return
	}

	// Authoritative claim from an established leader.
	if v.State == roleLeading && v.Candidate != s.id {
		if s.role == roleLeading && s.id > v.Candidate {
			return // I outrank the claimant; ignore the stale claim
		}
		if s.role == roleFollowing && s.leaderID == v.Candidate && s.syncedWithLeader {
			return // already settled on this leader
		}
		s.becomeFollower(v.Candidate)
		return
	}

	if s.role != roleLooking {
		// Remind the LOOKING sender who leads.
		reply := vote{Epoch: s.epoch, Zxid: s.zxid, Candidate: s.leaderID, Voter: s.id, State: s.role}
		if s.role == roleLeading {
			reply.Candidate = s.id
		}
		if reply.Candidate == 0 {
			return
		}
		if err := env.Net.Send("zk.election.send-vote", s.msg(m.From, "zk.vote", reply)); err != nil {
			env.Log.Warnf("Failed to send election notification to %s: %s", m.From, err)
		}
		return
	}

	// LOOKING: fresh ballots can change my vote; reminders only add to the
	// tally. A server only claims leadership for itself; it never follows a
	// peer until that peer announces LEADING.
	if v.State == roleLooking && v.Candidate > s.voteFor {
		s.voteFor = v.Candidate
		s.votes[s.id] = s.voteFor
		env.Log.Debugf("Adopting vote for zk%d on myid=%d", v.Candidate, s.id)
		s.broadcastVote()
	}
	s.votes[v.Voter] = v.Candidate
	tally := 0
	for _, cand := range s.votes {
		if cand == s.id {
			tally++
		}
	}
	if tally >= s.c.Quorum() {
		s.becomeLeader()
	}
}

func (s *Server) becomeLeader() {
	env := s.env()
	s.role = roleLeading
	s.leaderID = s.id
	s.acceptDead = false
	s.synced = make(map[int]bool)
	env.Log.Infof("LEADING on myid=%d epoch=%d", s.id, s.epoch)
	// Announce leadership so LOOKING peers follow.
	for _, p := range s.c.Servers {
		if p.id == s.id {
			continue
		}
		v := vote{Epoch: s.epoch, Zxid: s.zxid, Candidate: s.id, Voter: s.id, State: roleLeading}
		if err := env.Net.Send("zk.leader.announce", s.msg(p.name, "zk.vote", v)); err != nil {
			env.Log.Warnf("Failed to announce leadership to zk%d: %s", p.id, err)
		}
	}
}

func (s *Server) becomeFollower(leader int) {
	env := s.env()
	s.role = roleFollowing
	s.leaderID = leader
	s.syncedWithLeader = false
	s.connectTries = 0
	env.Log.Infof("FOLLOWING zk%d on myid=%d epoch=%d", leader, s.id, s.epoch)
	s.connectToLeader()
}

// connectToLeader registers this follower with the leader's follower
// acceptor. After repeated failures the follower re-enters LOOKING, as
// quorum peers do.
func (s *Server) connectToLeader() {
	if s.stopped || s.role != roleFollowing {
		return
	}
	env := s.env()
	leader := s.c.Servers[s.leaderID-1]
	env.Net.Call("zk.follower.connect-leader", s.msg(leader.name, "zk.follower-info", s.id),
		150*des.Millisecond, func(payload interface{}, err error) {
			if err != nil {
				s.connectTries++
				env.Log.Warnf("Cannot open channel to leader at zk%d (try %d): %s", s.leaderID, s.connectTries, err)
				if s.connectTries >= 2 {
					env.Log.Warnf("Exception when following the leader zk%d, re-entering LOOKING on myid=%d", s.leaderID, s.id)
					s.startElection()
					return
				}
				env.Sim.Schedule(s.actor("quorum"), 200*des.Millisecond, s.connectToLeader)
				return
			}
			s.connectTries = 0
			s.syncedWithLeader = true
			env.Log.Infof("Synced with leader zk%d on myid=%d", s.leaderID, s.id)
		})
}

// onFollowerInfo is the leader-side follower acceptor. A fault here kills
// the acceptor thread — a second latent defect of the same family as f3,
// with its own distinct symptom message.
func (s *Server) onFollowerInfo(m simnet.Message, respond func(interface{}, error)) {
	if s.stopped || s.acceptDead || s.role != roleLeading {
		return // dead listener: the follower's call times out
	}
	env := s.env()
	if err := env.FI.Reach("zk.leader.accept-follower", inject.Socket); err != nil {
		env.Log.Errorf("Exception while accepting follower connection: %s; follower acceptor exiting", err)
		s.acceptDead = true
		return
	}
	fid, _ := m.Payload.(int)
	s.synced[fid] = true
	respond(s.epoch, nil)
	if len(s.synced)+1 >= s.c.Quorum() && !s.serving {
		s.serving = true
		env.Log.Infof("Leader is serving epoch %d with %d synced followers", s.epoch, len(s.synced))
	}
}

func (s *Server) onPing(m simnet.Message, _ func(interface{}, error)) {
	// Heartbeat; nothing to do, but it keeps the network as noisy as a
	// real ensemble.
}
