package dyn

import (
	"slices"
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/des"
)

// auditPeriod is how often the anti-entropy audit compares replica state
// against the acknowledged client state; auditGrace is how long continuous
// divergence may last before the audit escalates. Transient divergence —
// a write still replicating, hints pending for a briefly-unreachable
// node, a rebalance in flight — stays under the grace period in a
// fault-free run; anti-entropy defects do not.
const (
	auditPeriod = 50 * des.Millisecond
	auditGrace  = 600 * des.Millisecond
)

// expectPut / expectDelete record what clients have had acknowledged —
// the state the replicas must eventually converge on.
func (c *Cluster) expectPut(key, val string) { c.expect(key, val) }
func (c *Cluster) expectDelete(key string)   { c.expect(key, tombSentinel) }

const tombSentinel = "\x00deleted"

// ackRec is the audit's record of one acknowledged key: the state clients
// were told it has, its owners under the audit ring, and the verdict the
// audit last reached on it. A record's verdict can only change when its
// acknowledged state, one of its replicas or the latest ring changes, so
// each of those queues the key (touch) and a tick judges the queued keys
// alone — unless the ring moved, when it judges every record.
type ackRec struct {
	key     string
	acked   string   // the acknowledged value, or tombSentinel
	holders []string // the key's owners under Cluster.auditRing; nil = not resolved yet
	apart   bool     // some holder disagrees with acked, as last judged
	queued  bool     // on Cluster.recheck
}

// expect records a key's acknowledged state. The key set only grows, and
// a new key's record is inserted in key order, which is how ack finds it.
func (c *Cluster) expect(key, val string) {
	i, found := slices.BinarySearchFunc(c.acks, key, compareAckKey)
	if !found {
		c.acks = slices.Insert(c.acks, i, ackRec{key: key})
	}
	c.acks[i].acked = val
	c.touch(key)
}

func compareAckKey(a ackRec, key string) int { return strings.Compare(a.key, key) }

// ack returns key's record, nil if clients have had no write of key
// acknowledged. The pointer is good until the next expect of a new key.
func (c *Cluster) ack(key string) *ackRec {
	if i, found := slices.BinarySearchFunc(c.acks, key, compareAckKey); found {
		return &c.acks[i]
	}
	return nil
}

// touch queues key, if clients have had it acknowledged, for the next
// tick to judge again. Every write or delete of a replica's copy of a key
// calls it, and so does expect.
func (c *Cluster) touch(key string) {
	if ack := c.ack(key); ack != nil && !ack.queued {
		ack.queued = true
		c.recheck = append(c.recheck, key)
	}
}

// startAudit runs the convergence audit: under the latest ring every
// owner of every acknowledged key must hold exactly the acknowledged
// state (a deleted key may be absent or hold a lone tombstone). The audit
// is harness-side observation — it reads replica state directly and never
// mutates it.
func (c *Cluster) startAudit() {
	env := c.env
	env.Sim.Every("dyn-audit", auditPeriod, func() {
		c.judgeTouched()
		if auditTicked != nil {
			auditTicked(c)
		}
		divergent := c.apartKeys
		now := env.Sim.Now()
		if divergent > 0 {
			if !c.divergent {
				c.divergent = true
				c.divergentSince = now
				c.graceLogged = false
			}
			env.Log.Warnf("anti-entropy audit: %d keys divergent", divergent)
			if !c.graceLogged && now-c.divergentSince >= auditGrace {
				c.graceLogged = true
				env.Log.Warnf("anti-entropy audit: replicas diverged beyond grace period")
			}
			return
		}
		if c.divergent || !c.everAgreed {
			c.divergent = false
			c.everAgreed = true
			c.agreeSince = now
			env.Log.Infof("anti-entropy audit: replicas converged")
		}
	})
}

// auditTicked, when set, is handed the cluster at every audit tick once
// the tick has judged; the audit's tests hold its count to a full scan.
var auditTicked func(*Cluster)

// judgeTouched brings apartKeys up to date: it judges the records of the
// keys touched since the last tick, or — when the latest ring is not the
// one the holders were resolved under — every record, with its holders
// resolved again. The count it leaves is the one a judgement of every
// record under the latest ring gives.
func (c *Cluster) judgeTouched() {
	if ring := c.latestRing(); ring != c.auditRing {
		c.auditRing = ring
		for i := range c.acks {
			ack := &c.acks[i]
			ack.holders, ack.queued = nil, false
			c.judge(ack)
		}
	} else {
		for _, key := range c.recheck {
			ack := c.ack(key)
			ack.queued = false
			c.judge(ack)
		}
	}
	c.recheck = c.recheck[:0]
}

// judge re-reaches one record's verdict and keeps apartKeys in step.
func (c *Cluster) judge(ack *ackRec) {
	if ack.holders == nil {
		ack.holders = c.auditRing.PreferenceList(ack.key, c.cfg.N)
	}
	apart := false
	for _, name := range ack.holders {
		if !holdsAcked(c.byName[name].store[ack.key], ack.acked) {
			apart = true
			break
		}
	}
	if apart != ack.apart {
		ack.apart = apart
		if apart {
			c.apartKeys++
		} else {
			c.apartKeys--
		}
	}
}

// holdsAcked reports whether a replica's sibling set is exactly the
// acknowledged state: for a deleted key, absent or a lone tombstone.
func holdsAcked(set []Version, acked string) bool {
	if acked == tombSentinel {
		return len(set) == 0 || (len(set) == 1 && set[0].Tomb)
	}
	return len(set) == 1 && !set[0].Tomb && set[0].Val == acked
}

// latestRing is the most advanced ring any node holds — the membership
// the audit judges ownership by.
func (c *Cluster) latestRing() *Ring {
	best := c.nodes[0].ring
	for _, n := range c.nodes[1:] {
		if n.ring.Version > best.Version {
			best = n.ring
		}
	}
	return best
}

// convergence is the probe handed to cluster.Env.RegisterConvergence.
func (c *Cluster) convergence() cluster.Convergence {
	return cluster.Convergence{
		Tracked:   true,
		Converged: c.everAgreed && !c.divergent,
		Since:     c.agreeSince,
	}
}
