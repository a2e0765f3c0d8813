package des_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/failures"
	"anduril/internal/inject"
)

// TestPathTreeRendersAndHashes: on a random tree — wide, deep, repeated
// labels so sequence numbers pass one and two digits — every node renders
// as the naive oracle does, appends after existing bytes without touching
// them, and carries the fold of exactly the edges its string spells.
func TestPathTreeRendersAndHashes(t *testing.T) {
	sim := des.New(1)
	if sim.PathExtend("x") != 0 || sim.PathString(0) != "" || sim.PathHash(0) != des.PathRoot {
		t.Fatal("a run without tracking must stay at the root")
	}
	sim.EnablePathTracking()
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "zk.election.send-vote", "dyn.gossip.send-digest", "b.c"}
	// Grow the tree from inside dispatched events, as the network does:
	// each event extends its own context a few times and hands some of the
	// children on.
	var grow func(interface{})
	grow = func(interface{}) {
		for i := rng.Intn(14); i >= 0 && sim.PathNodes() < 4000; i-- {
			child := sim.PathExtend(labels[rng.Intn(len(labels))])
			if i%3 == 0 {
				sim.PostArgPath("actor", 1, grow, nil, child)
			}
		}
	}
	sim.PostArgPath("actor", 1, grow, nil, 0)
	sim.Run(des.Time(1) << 40)
	if sim.PathNodes() < 1000 {
		t.Fatalf("tree has only %d nodes", sim.PathNodes())
	}
	for id := int32(0); int(id) < sim.PathNodes(); id++ {
		want := sim.NaivePathString(id)
		if got := sim.PathString(id); got != want {
			t.Fatalf("node %d renders %q, oracle %q", id, got, want)
		}
		if got := string(sim.AppendPath([]byte("keep:"), id)); got != "keep:"+want {
			t.Fatalf("node %d appended %q, want %q", id, got, "keep:"+want)
		}
		// Fold the string's own edges: the hash is a function of the
		// address, not of node ids or creation order.
		h := des.PathRoot
		if want != "" {
			for _, edge := range strings.Split(want, ">") {
				label, seq := edge, 1
				if i := strings.IndexByte(edge, '['); i >= 0 {
					label = edge[:i]
					seq, _ = strconv.Atoi(edge[i+1 : len(edge)-1])
				}
				h = des.PathFold(h, label, seq)
			}
		}
		if sim.PathHash(id) != h {
			t.Fatalf("node %d (%s) hash %x, folded from its string %x", id, want, sim.PathHash(id), h)
		}
	}
}

// TestPathFoldIsFixed pins PathFold's values. The hash is part of no wire
// format, but runs must reproduce and a script's Path folded by one process
// must meet a live reach folded by another — so the function may depend on
// no per-process seed, and changing it is a deliberate act.
func TestPathFoldIsFixed(t *testing.T) {
	for _, c := range []struct {
		label string
		n     int
		want  uint64
	}{
		{"client.put", 1, 0x7fd8af67f85c6fae},
		{"client.put", 2, 0xf1fb4e436eaf921a},
		{"", 1198, 0xe197b29698736b3c},
	} {
		if got := des.PathFold(des.PathRoot, c.label, c.n); got != c.want {
			t.Errorf("PathFold(root, %q, %d) = %#x, want %#x", c.label, c.n, got, c.want)
		}
	}
	if des.PathFold(des.PathRoot, "ab", 1) == des.PathFold(des.PathFold(des.PathRoot, "a", 1), "b", 1) {
		t.Error("one edge ab and two edges a>b fold alike")
	}
}

// TestPathIdentityMatchesStringsOnDataset is the equivalence the chain
// hash rests on, over every reach of two real free runs — f1, whose zk
// one-way Send chains run over a thousand edges deep, and f26 (dyn): the
// rendering of a reach's identity is the string the runtime used to
// concatenate (oracle prefix + ">" + site + "#" + n), no two reaches share
// a key, and the key the runtime folded equals the key folded from parsing
// that string, which is how a script's path finds its reach.
func TestPathIdentityMatchesStringsOnDataset(t *testing.T) {
	for id, minDepth := range map[string]int{"f1": 1000, "f26": 1} {
		sc, _ := failures.ByID(id)
		tgt, err := sc.BuildTarget()
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(nil, nil, 1, nil, tgt.Workload, tgt.Horizon, inject.PathAddressing)
		if err != nil {
			t.Fatal(err)
		}
		trace := res.Env.FI.Trace()
		if len(trace) == 0 {
			t.Fatalf("%s: free run kept no trace", id)
		}
		seen := make(map[uint64]string, len(trace))
		depth := 0
		for _, ev := range trace {
			old := ev.Site + "#" + strconv.Itoa(int(ev.Addr.N))
			if prefix := res.Env.Sim.NaivePathString(ev.Addr.Node); prefix != "" {
				old = prefix + ">" + old
				depth = max(depth, 1+strings.Count(prefix, ">"))
			}
			if got := res.Env.FI.PathOf(ev.Site, ev.Addr); got != old {
				t.Fatalf("%s: %s#%d renders %q, the old way %q", id, ev.Site, ev.Occurrence, got, old)
			}
			if h, ok := inject.PathHash(old); !ok || h != ev.Addr.Hash {
				t.Fatalf("%s: %q parses to key %x (ok=%v), the runtime folded %x", id, old, h, ok, ev.Addr.Hash)
			}
			if other, dup := seen[ev.Addr.Hash]; dup {
				t.Fatalf("%s: %q and %q share key %x", id, other, old, ev.Addr.Hash)
			}
			seen[ev.Addr.Hash] = old
		}
		t.Logf("%s: %d reaches, %d call-tree nodes, deepest context %d edges", id, len(trace), res.Env.Sim.PathNodes(), depth)
		if depth < minDepth {
			t.Errorf("%s: deepest context is %d edges, expected at least %d (path.go documents these depths)", id, depth, minDepth)
		}
	}
}
