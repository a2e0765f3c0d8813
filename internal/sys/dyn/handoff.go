package dyn

import (
	"errors"

	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// hint is one write a coordinator could not deliver to an owner: the
// destination, the version, and whether the queued entry still carries
// its version metadata (see the f28 defect below).
type hint struct {
	node     string
	key      string
	ver      Version
	bare     bool
	inflight bool
}

// storeHint persists and queues a hint for an unreachable owner.
func (n *Node) storeHint(node, key string, ver Version) {
	env := n.c.env
	if err := env.Disk.Append("dyn.handoff.store-hint", n.hintLog, n.c.record(node, key, ver.VC)); err != nil {
		env.Log.Warnf("Hint of %s for %s lost on %s", key, node, n.name)
		return
	}
	n.hints = append(n.hints, &hint{node: node, key: key, ver: ver})
	env.Log.Debugf("Stored hint of %s for %s on %s (%d pending)", key, node, n.name, len(n.hints))
}

// startHandoff replays pending hints. The replay is tombstone-aware
// because a replayed version keeps its original clock: a delete issued
// after the hinted write was coordinated by the same node, so its
// tombstone dominates the replayed version and the replica keeps the
// delete.
func (n *Node) startHandoff() {
	env := n.c.env
	env.Sim.Every(n.name+"-handoff", 150*des.Millisecond, func() {
		if !n.alive || len(n.hints) == 0 {
			return
		}
		for _, h := range n.hints {
			if h.inflight {
				continue
			}
			h.inflight = true
			h := h
			ver := h.ver
			if h.bare {
				// Defect (f28): this hint was requeued without its version
				// metadata, so the replay fabricates a fresh coordinator
				// version — which dominates any tombstone written between
				// the hinted write and now, resurrecting the deleted key.
				ver = Version{Val: h.ver.Val, VC: n.nextVC(h.key)}
			}
			env.Net.Call("dyn.handoff.replay-hint", simnet.Message{
				From: n.name, To: h.node, Type: "dyn.store",
				Payload: storeReq{Key: h.key, Ver: ver},
			}, 120*des.Millisecond, func(_ interface{}, err error) {
				h.inflight = false
				if err != nil {
					if errors.Is(err, inject.KindErr(inject.Socket)) {
						// Defect (f28 root): a socket error mid-replay makes
						// the loop requeue the hint stripped of its clock.
						h.bare = true
						env.Log.Warnf("Hint replay of %s to %s failed; requeued without version metadata", h.key, h.node)
						return
					}
					env.Log.Debugf("Hint replay of %s to %s still failing", h.key, h.node)
					return
				}
				n.dropHint(h)
				env.Log.Infof("Replayed hint of %s to %s (%d pending on %s)", h.key, h.node, len(n.hints), n.name)
			})
		}
	})
}

func (n *Node) dropHint(target *hint) {
	kept := n.hints[:0]
	for _, h := range n.hints {
		if h != target {
			kept = append(kept, h)
		}
	}
	n.hints = kept
}
