package dyn

import (
	"slices"
	"sort"

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

// expect records a key's acknowledged state. The key set only grows, so
// the sorted key list the audit walks every tick is maintained here, at
// insertion, instead of being rebuilt and sorted per tick.
func (c *Cluster) expect(key, val string) {
	if _, known := c.expected[key]; !known {
		i := sort.SearchStrings(c.expectedKeys, key)
		c.expectedKeys = slices.Insert(c.expectedKeys, i, key)
		c.auditOwners = slices.Insert(c.auditOwners, i, nil)
	}
	c.expected[key] = val
}

const tombSentinel = "\x00deleted"

// startAudit runs the convergence audit: under the latest ring every
// owner of every acknowledged key must hold exactly the acknowledged
// state (a deleted key may be absent or hold a lone tombstone). The audit
// is harness-side observation — it reads replica state directly and never
// mutates it.
func (c *Cluster) startAudit() {
	env := c.env
	env.Sim.Every("dyn-audit", auditPeriod, func() {
		ring := c.latestRing()
		if ring != c.auditRing {
			c.auditRing = ring
			clear(c.auditOwners)
		}
		divergent := 0
		for i, key := range c.expectedKeys {
			want := c.expected[key]
			if c.auditOwners[i] == nil {
				c.auditOwners[i] = c.ownerNodes(ring, key)
			}
			for _, owner := range c.auditOwners[i] {
				set := owner.store[key]
				if want == tombSentinel {
					if len(set) == 0 || (len(set) == 1 && set[0].Tomb) {
						continue
					}
				} else if len(set) == 1 && !set[0].Tomb && set[0].Val == want {
					continue
				}
				divergent++
				break
			}
		}
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

// ownerNodes resolves a key's preference list under ring to the nodes
// themselves. Ownership is a function of (ring, key) and the audit asks
// for it every tick, so it keeps the answer until the latest ring changes.
func (c *Cluster) ownerNodes(ring *Ring, key string) []*Node {
	names := ring.PreferenceList(key, c.cfg.N)
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = c.byName[name]
	}
	return nodes
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
