package dyn

import (
	"fmt"

	"anduril/internal/des"
	"anduril/internal/simnet"
)

// Wire payloads. A Version is an immutable value (its clock is never
// written after it is built, see VClock), so messages, stores and hints
// share it; the one mutable thing is a store's sibling slice, which
// addVersion rewrites in place, so a read hands out a copy of the slice.
type opReq struct {
	Op  string // "put", "del", "get"
	Key string
	Val string
}

type opResp struct {
	Found bool
	Val   string
}

type storeReq struct {
	Key string
	Ver Version
}

type readReq struct{ Key string }

type readResp struct{ Vers []Version }

// nextVC advances the coordinator's causal context for a key and returns
// the clock for a new version. Successive operations through the same
// coordinator therefore dominate each other — the property tombstone-
// aware handoff replay depends on.
func (n *Node) nextVC(key string) VClock {
	vc := n.context[key].Tick(n.name)
	n.context[key] = vc
	return vc
}

// coordPut coordinates a sloppy-quorum write (or delete, when tomb is
// set): ship the new version to every owner in the key's preference list,
// acknowledge the client at W acks, and store a hint for every owner that
// could not be reached.
func (n *Node) coordPut(key, val string, tomb bool, respond func(interface{}, error)) {
	env := n.c.env
	ver := Version{Val: val, Tomb: tomb, VC: n.nextVC(key)}
	req := interface{}(storeReq{Key: key, Ver: ver}) // one box for every owner
	owners := n.ring.PreferenceList(key, n.c.cfg.N)
	total := len(owners)
	acks, fails := 0, 0
	responded := false
	finish := func() {
		if responded {
			return
		}
		if acks >= n.c.cfg.W {
			responded = true
			respond(opResp{}, nil)
			return
		}
		if acks+fails == total {
			responded = true
			respond(nil, fmt.Errorf("dyn: write quorum not met for %s", key))
		}
	}
	for _, owner := range owners {
		if owner == n.name {
			if err := n.applyVersion(key, ver); err != nil {
				fails++
			} else {
				acks++
			}
			finish()
			continue
		}
		o := owner
		env.Net.Call("dyn.coord.store-rpc", simnet.Message{
			From: n.name, To: o, Type: "dyn.store",
			Payload: req,
		}, 150*des.Millisecond, func(_ interface{}, err error) {
			if err != nil {
				fails++
				n.storeHint(o, key, ver)
				finish()
				return
			}
			acks++
			finish()
		})
	}
}

// coordGet coordinates a quorum read: fetch every owner's sibling set,
// require R responses, resolve the winner, and read-repair the owners
// whose sets have fallen behind.
func (n *Node) coordGet(key string, respond func(interface{}, error)) {
	env := n.c.env
	owners := n.ring.PreferenceList(key, n.c.cfg.N)
	total := len(owners)
	type ownerState struct {
		ok   bool
		vers []Version
	}
	states := make([]ownerState, total)
	resps, oks := 0, 0
	finish := func() {
		if resps != total {
			return
		}
		if oks < n.c.cfg.R {
			respond(nil, fmt.Errorf("dyn: read quorum not met for %s", key))
			return
		}
		var collected []Version
		for _, st := range states {
			collected = append(collected, st.vers...)
		}
		set := siblings(collected)
		winner, found := resolve(set)
		if len(set) > 0 {
			merged := VClock{}
			for _, v := range set {
				merged = merged.Merge(v.VC)
			}
			n.context[key] = n.context[key].Merge(merged)
			repair := Version{Val: winner.Val, Tomb: winner.Tomb, VC: merged}
			for i, owner := range owners {
				if !states[i].ok || equalVersionSets(states[i].vers, set) {
					continue
				}
				if owner == n.name {
					_ = n.applyVersion(key, repair)
					continue
				}
				o := owner
				env.Net.Call("dyn.repair.push", simnet.Message{
					From: n.name, To: o, Type: "dyn.store",
					Payload: storeReq{Key: key, Ver: repair},
				}, 150*des.Millisecond, func(_ interface{}, err error) {
					if err != nil {
						env.Log.Debugf("Read repair of %s to %s failed", key, o)
						return
					}
					env.Log.Infof("Read repair of %s pushed to %s", key, o)
				})
			}
		}
		if !found {
			respond(opResp{Found: false}, nil)
			return
		}
		respond(opResp{Found: true, Val: winner.Val}, nil)
	}
	for i, owner := range owners {
		if owner == n.name {
			states[i] = ownerState{ok: true, vers: cloneVersions(n.store[key])}
			resps++
			oks++
			finish()
			continue
		}
		i, o := i, owner
		env.Net.Call("dyn.coord.fetch-rpc", simnet.Message{
			From: n.name, To: o, Type: "dyn.read",
			Payload: readReq{Key: key},
		}, 150*des.Millisecond, func(payload interface{}, err error) {
			resps++
			if err == nil {
				states[i] = ownerState{ok: true, vers: payload.(readResp).Vers}
				oks++
			}
			finish()
		})
	}
}
