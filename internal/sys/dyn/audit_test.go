package dyn

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// TestIncrementalAuditMatchesFullScan: the divergent count the audit
// keeps by judging only touched keys equals, at every tick, a full scan of
// every acknowledged key's owners under the latest ring. Both workloads
// run under seeds 1–8, free and under random Exact plans: single and
// double faults at dyn sites, and node crashes.
func TestIncrementalAuditMatchesFullScan(t *testing.T) {
	ticks, apart, mismatches := 0, 0, 0
	auditTicked = func(c *Cluster) {
		ticks++
		if c.apartKeys > 0 {
			apart++
		}
		if want := fullScanDivergent(c); c.apartKeys != want {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("t=%v: audit counts %d divergent keys, a full scan %d", c.env.Sim.Now(), c.apartKeys, want)
			}
		}
	}
	defer func() { auditTicked = nil }()

	workloads := map[string]cluster.Workload{"membership": WorkloadMembership, "tombstones": WorkloadTombstones}
	for _, name := range []string{"membership", "tombstones"} {
		w := workloads[name]
		for seed := int64(1); seed <= 8; seed++ {
			free, err := cluster.Run(nil, nil, seed, nil, w, Horizon, inject.EnvFaults)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			var sites, crashes []inject.Instance
			counts := free.Env.FI.Counts()
			for site, n := range counts {
				for occ := 1; occ <= n; occ++ {
					inst := inject.Instance{Site: site, Occurrence: occ}
					switch {
					case strings.HasPrefix(site, "dyn."):
						sites = append(sites, inst)
					case strings.HasPrefix(site, "env/crash/"):
						crashes = append(crashes, inst)
					}
				}
			}
			for _, list := range [][]inject.Instance{sites, crashes} {
				sort.Slice(list, func(i, j int) bool {
					if list[i].Site != list[j].Site {
						return list[i].Site < list[j].Site
					}
					return list[i].Occurrence < list[j].Occurrence
				})
			}
			r := rand.New(rand.NewSource(seed))
			plans := []*inject.Plan{
				inject.Exact(sites[r.Intn(len(sites))]),
				inject.Exact(sites[r.Intn(len(sites))]),
				inject.Exact(sites[r.Intn(len(sites))], sites[r.Intn(len(sites))]),
				inject.Exact(crashes[r.Intn(len(crashes))]),
				inject.Exact(crashes[r.Intn(len(crashes))], sites[r.Intn(len(sites))]),
			}
			for _, plan := range plans {
				if _, err := cluster.Run(nil, nil, seed, plan, w, Horizon, inject.EnvFaults); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
			}
		}
	}
	if ticks == 0 || apart == 0 {
		t.Fatalf("%d ticks, %d with divergent keys: the runs never exercised the audit", ticks, apart)
	}
	t.Logf("%d ticks checked, %d with divergent keys", ticks, apart)
}

// fullScanDivergent is the audit's answer computed from scratch: how many
// acknowledged keys have an owner, under the latest ring, that does not
// hold exactly the acknowledged state.
func fullScanDivergent(c *Cluster) int {
	ring := c.nodes[0].ring
	for _, n := range c.nodes {
		if n.ring.Version > ring.Version {
			ring = n.ring
		}
	}
	divergent := 0
	for _, ack := range c.acks {
		for _, name := range ring.PreferenceList(ack.key, c.cfg.N) {
			set := c.byName[name].store[ack.key]
			var agrees bool
			if ack.acked == tombSentinel {
				agrees = len(set) == 0 || (len(set) == 1 && set[0].Tomb)
			} else {
				agrees = len(set) == 1 && !set[0].Tomb && set[0].Val == ack.acked
			}
			if !agrees {
				divergent++
				break
			}
		}
	}
	return divergent
}

// TestReplicaChangesQueueTheirKey: each way a replica's copy of a key
// changes — a version applied, a range received, a copy dropped — queues
// the key's record for the next tick. The workloads cover these only
// together (a range transfer is followed by the displaced copy's drop),
// so each is checked alone here.
func TestReplicaChangesQueueTheirKey(t *testing.T) {
	env := cluster.NewEnv(1, nil)
	members := []string{"dyn1", "dyn2"}
	c := New(env, Config{Nodes: members, Members: members, N: 2, R: 1, W: 1, VNodes: 8, GCGrace: des.Second})
	n := c.byName["dyn1"]
	const key = "k001"
	c.expectPut(key, "v001")
	changes := []struct {
		name   string
		change func()
	}{
		{"applyVersion", func() { _ = n.applyVersion(key, Version{Val: "v001", VC: n.nextVC(key)}) }},
		{"onTransfer", func() {
			msg := simnet.Message{Payload: transferMsg{Recs: []transferRec{{Key: key, Vers: []Version{{Val: "v001", VC: n.nextVC(key)}}}}}}
			n.onTransfer(msg, func(interface{}, error) {})
		}},
		{"dropKeys", func() { n.dropKeys([]string{key}) }},
	}
	for _, ch := range changes {
		c.judgeTouched()
		ch.change()
		if !c.ack(key).queued || len(c.recheck) != 1 {
			t.Errorf("%s left %s unqueued", ch.name, key)
		}
	}
}
