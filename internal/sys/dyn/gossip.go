package dyn

import (
	"anduril/internal/des"
	"anduril/internal/simnet"
)

type digestMsg struct {
	From    string
	Version int
}

type ringMsg struct {
	Version int
	Members []string
}

type transferRec struct {
	Key  string
	Vers []Version
}

type transferMsg struct{ Recs []transferRec }

type releaseMsg struct{ Keys []string }

// startGossip runs the membership digest loop: every round the node tells
// one peer (alternating between its successor and second successor in
// name order, so a single lost link cannot stall propagation) which ring
// version it holds. A peer that is behind pulls the full ring. The
// per-node timers are phase-staggered so rounds of different nodes never
// share a tick — synchronized rounds would let network jitter reorder
// near-simultaneous ring pulls between runs.
func (n *Node) startGossip() {
	env := n.c.env
	peers := n.c.names
	idx := 0
	for i, p := range peers {
		if p == n.name {
			idx = i
		}
	}
	phase := des.Time(idx) * 10 * des.Millisecond
	env.Sim.Schedule(n.name+"-gossip", phase, func() {
		env.Sim.Every(n.name+"-gossip", 100*des.Millisecond, func() {
			if !n.alive {
				return
			}
			n.gossipRound++
			step := 1 + n.gossipRound%2
			peer := peers[(idx+step)%len(peers)]
			if peer == n.name {
				return
			}
			if err := env.Net.Send("dyn.gossip.send-digest", simnet.Message{
				From: n.name, To: peer, Type: "dyn.digest",
				Payload: n.ring.Version, // the digest; msg.From is its sender
			}); err != nil {
				env.Log.Debugf("Gossip digest from %s to %s lost", n.name, peer)
			}
		})
	})
}

// onDigest reacts to a peer's ring version: nothing when we are current,
// a pull of the full ring when the digest advertises a newer one. Each
// ring version is pulled at most once.
func (n *Node) onDigest(m simnet.Message, _ func(interface{}, error)) {
	if !n.alive {
		return
	}
	d := digestMsg{From: m.From, Version: m.Payload.(int)}
	if d.Version <= n.ring.Version || n.pulled[d.Version] || n.pulling[d.Version] {
		return
	}
	env := n.c.env
	n.pulling[d.Version] = true
	env.Net.Call("dyn.gossip.pull-ring", simnet.Message{
		From: n.name, To: d.From, Type: "dyn.pullring",
		Payload: readReq{},
	}, 150*des.Millisecond, func(payload interface{}, err error) {
		delete(n.pulling, d.Version)
		if err != nil {
			// Defect (f26 root): the failed pull is recorded as handled, so
			// every later digest for this ring version is ignored and the
			// node keeps routing reads and writes on the stale ring — it
			// never migrates its primaries to the new member either.
			n.pulled[d.Version] = true
			env.Log.Warnf("Gossip pull of ring v%d from %s failed on %s; digest marked handled", d.Version, d.From, n.name)
			return
		}
		rm := payload.(ringMsg)
		n.pulled[rm.Version] = true
		n.adoptRing(rm.Version, rm.Members)
	})
}

// onPullRing serves the node's current ring to a peer that is behind.
func (n *Node) onPullRing(_ simnet.Message, respond func(interface{}, error)) {
	if !n.alive {
		respond(nil, errNodeDown)
		return
	}
	respond(ringMsg{Version: n.ring.Version, Members: append([]string(nil), n.ring.Members...)}, nil)
}

// adoptRing switches the node to a newer ring and rebalances: the keys
// this node was primary for that gained owners are transferred to the
// newcomers, and the displaced replicas release their copies once the
// transfer settles.
func (n *Node) adoptRing(version int, members []string) {
	if version <= n.ring.Version {
		return
	}
	env := n.c.env
	old := n.ring
	n.ring = sharedRing(version, members, n.c.cfg.VNodes)
	n.pulled[version] = true
	env.Log.Infof("Node %s adopted ring v%d with %d members", n.name, version, len(members))
	n.migrate(old, n.ring)
}

// migrate pushes the moved key ranges to their new owners, one batched
// transfer per destination.
func (n *Node) migrate(old, cur *Ring) {
	env := n.c.env
	batches := make(map[string][]string)
	for _, key := range sortedVerKeys(n.store) {
		oldPref := old.PreferenceList(key, n.c.cfg.N)
		if len(oldPref) == 0 || oldPref[0] != n.name {
			continue
		}
		for _, owner := range cur.PreferenceList(key, n.c.cfg.N) {
			if !containsStr(oldPref, owner) {
				batches[owner] = append(batches[owner], key)
			}
		}
	}
	for _, dst := range sortedBatchKeys(batches) {
		keys := batches[dst]
		recs := make([]transferRec, len(keys))
		for i, key := range keys {
			recs[i] = transferRec{Key: key, Vers: cloneVersions(n.store[key])}
		}
		dst := dst
		env.Net.Call("dyn.migrate.transfer-range", simnet.Message{
			From: n.name, To: dst, Type: "dyn.transfer",
			Payload: transferMsg{Recs: recs},
		}, 200*des.Millisecond, func(_ interface{}, err error) {
			if err != nil {
				// Defect (f29): the failed transfer is logged and then the
				// range is treated as migrated anyway — the release below
				// still tells the displaced replicas to drop their copies,
				// so the quorum overlap the new ring promises is gone.
				env.Log.Errorf("Range transfer of %d keys to %s failed on %s; marking range migrated", len(keys), dst, n.name)
			} else {
				env.Log.Infof("Transferred %d keys to %s for ring v%d", len(keys), dst, cur.Version)
			}
			n.releaseMoved(old, cur, keys)
		})
	}
}

// releaseMoved tells every replica displaced by the rebalance to drop its
// copies of the moved keys.
func (n *Node) releaseMoved(old, cur *Ring, keys []string) {
	env := n.c.env
	drops := make(map[string][]string)
	for _, key := range keys {
		newPref := cur.PreferenceList(key, n.c.cfg.N)
		for _, member := range old.PreferenceList(key, n.c.cfg.N) {
			if !containsStr(newPref, member) {
				drops[member] = append(drops[member], key)
			}
		}
	}
	for _, member := range sortedBatchKeys(drops) {
		if member == n.name {
			n.dropKeys(drops[member])
			continue
		}
		if err := env.Net.Send("dyn.migrate.drop-source", simnet.Message{
			From: n.name, To: member, Type: "dyn.release",
			Payload: releaseMsg{Keys: drops[member]},
		}); err != nil {
			env.Log.Debugf("Release notice from %s to %s lost", n.name, member)
		}
	}
}

// onTransfer receives a batched range transfer and folds it into the
// local store.
func (n *Node) onTransfer(m simnet.Message, respond func(interface{}, error)) {
	if !n.alive {
		respond(nil, errNodeDown)
		return
	}
	env := n.c.env
	tm := m.Payload.(transferMsg)
	data := []byte("range\n")
	if err := env.Disk.Append("dyn.migrate.persist-range", n.name+"/ranges.log", data); err != nil {
		env.Log.Warnf("Range persist failed on %s", n.name)
		respond(nil, err)
		return
	}
	for _, rec := range tm.Recs {
		for _, v := range rec.Vers {
			n.store[rec.Key] = addVersion(n.store[rec.Key], v)
			if v.Tomb {
				n.tombAt[rec.Key] = env.Sim.Now()
			}
		}
		n.c.touch(rec.Key)
	}
	env.Log.Infof("Received range of %d keys on %s", len(tm.Recs), n.name)
	respond("ok", nil)
}

// onRelease drops the copies a rebalance displaced from this node.
func (n *Node) onRelease(m simnet.Message, _ func(interface{}, error)) {
	if !n.alive {
		return
	}
	rm := m.Payload.(releaseMsg)
	n.dropKeys(rm.Keys)
}

func (n *Node) dropKeys(keys []string) {
	dropped := 0
	for _, key := range keys {
		if _, ok := n.store[key]; ok {
			delete(n.store, key)
			delete(n.tombAt, key)
			n.c.touch(key)
			dropped++
		}
	}
	if dropped > 0 {
		n.c.env.Log.Debugf("Dropped %d migrated keys on %s", dropped, n.name)
	}
}
