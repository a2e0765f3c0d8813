package dyn

// Equivalence tests for the round-invariant work the ring does once: the
// process-wide point-table memo, the per-ring owners memo and the inline
// hash must be indistinguishable from the computation they replaced, which
// lives on here as the oracle.
//
//	go test ./internal/sys/dyn -run '^$' -bench 'BenchmarkNew|BenchmarkPreferenceList' -benchmem -count 3

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"anduril/internal/cluster"
	"anduril/internal/des"
)

// fnv32 is the hash the ring used before hash32 was inlined.
func fnv32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// naivePreferenceList is the pre-memo computation, kept verbatim as the
// oracle: a ring rebuilt from scratch with fmt and hash/fnv, a walk that
// dedupes through a map, nothing remembered.
func naivePreferenceList(members []string, vnodes int, key string, n int) []string {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	var points []ringPoint
	for _, m := range sorted {
		for i := 0; i < vnodes; i++ {
			points = append(points, ringPoint{hash: fnv32(fmt.Sprintf("%s#%d", m, i)), node: m})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	if len(points) == 0 || n <= 0 {
		return nil
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	kh := fnv32(key)
	start := sort.Search(len(points), func(i int) bool { return points[i].hash >= kh })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(points) && len(owners) < n; i++ {
		p := points[(start+i)%len(points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}

func TestHash32EqualsFNV1a(t *testing.T) {
	prop := func(s string) bool { return hash32(s) == fnv32(s) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if !prop("") || !prop("dyn1#63") {
		t.Fatal("hash32 differs from FNV-1a on a fixed input")
	}
}

// qgrow is a quick generator for a cluster configuration that grows: a
// random membership, a strict superset of it, a vnode count and a key set.
type qgrow struct {
	members, grown []string
	vnodes         int
	keys           []string
}

func (qgrow) Generate(r *rand.Rand, _ int) reflect.Value {
	perm := r.Perm(len(ringPool))
	size := 1 + r.Intn(len(ringPool)-1)
	grownSize := size + 1 + r.Intn(len(ringPool)-size)
	q := qgrow{vnodes: 1 + r.Intn(32)}
	for _, i := range perm[:grownSize] {
		q.grown = append(q.grown, ringPool[i])
	}
	q.members = q.grown[:size]
	for i := 0; i < 8; i++ {
		q.keys = append(q.keys, fmt.Sprintf("key-%d", r.Intn(40)))
	}
	return reflect.ValueOf(q)
}

// TestSharedRingEqualsFreshRing: the rings a cluster routes by — built over
// the memoized point table, answering from the owners memo — agree with
// the from-scratch oracle for every key and every n (n beyond the
// membership included), on first use and on every repeat, both for the
// initial ring and after adoptRing moved a node to a larger membership.
func TestSharedRingEqualsFreshRing(t *testing.T) {
	agrees := func(r *Ring, members []string, q qgrow) bool {
		if !reflect.DeepEqual(r.points, NewRing(r.Version, members, q.vnodes).points) {
			return false
		}
		// Descending then ascending n: shorter requests are served from a
		// longer memo entry, longer ones replace a shorter entry.
		for _, n := range []int{len(q.grown) + 2, 3, 1, 0, 2, len(members), len(q.grown) + 1} {
			for _, key := range q.keys {
				want := naivePreferenceList(members, q.vnodes, key, n)
				if got := r.PreferenceList(key, n); !reflect.DeepEqual(got, want) {
					t.Logf("ring v%d %v vnodes=%d key=%s n=%d: got %v, want %v",
						r.Version, members, q.vnodes, key, n, got, want)
					return false
				}
			}
		}
		return true
	}
	prop := func(q qgrow) bool {
		env := cluster.NewEnv(1, nil)
		c := New(env, Config{
			Nodes: q.grown, Members: q.members,
			N: 2, R: 1, W: 1, VNodes: q.vnodes, GCGrace: des.Second,
		})
		node := c.byName[c.names[0]]
		if !agrees(node.ring, q.members, q) {
			return false
		}
		node.adoptRing(2, q.grown)
		return node.ring.Version == 2 && agrees(node.ring, q.grown, q)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPreferenceListAppendCannotReachMemo: PreferenceList hands out its
// memo entry. Element writes are forbidden by contract; what the contract
// allows — appending to the result — must never show through a later
// call, whichever n either call asked for.
func TestPreferenceListAppendCannotReachMemo(t *testing.T) {
	members := []string{"dyn1", "dyn2", "dyn3", "dyn4"}
	ring := sharedRing(1, members, 64)
	full := append([]string(nil), ring.PreferenceList("k007", 4)...)
	for n := 1; n <= 3; n++ {
		got := ring.PreferenceList("k007", n)
		if len(got) != cap(got) {
			t.Fatalf("n=%d: len %d, cap %d — an append would write into the memo", n, len(got), cap(got))
		}
		_ = append(got, "intruder")
		if again := ring.PreferenceList("k007", 4); !reflect.DeepEqual(again, full) {
			t.Fatalf("after appending to the n=%d list: %v, want %v", n, again, full)
		}
	}
}

// TestExpectKeepsKeysSorted: expect keeps one record per acknowledged
// key, holding the key's last acknowledged state, in key order — the
// order ack's binary search needs — and queues each key for the next tick
// exactly once.
func TestExpectKeepsKeysSorted(t *testing.T) {
	c := &Cluster{}
	want := map[string]string{}
	for _, i := range rand.New(rand.NewSource(5)).Perm(40) {
		c.expectPut(keyName(i%25), valName(i))
		want[keyName(i%25)] = valName(i)
		if i%3 == 0 {
			c.expectDelete(keyName(i % 7))
			want[keyName(i%7)] = tombSentinel
		}
	}
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var got []string
	for _, ack := range c.acks {
		got = append(got, ack.key)
		if ack.acked != want[ack.key] || c.ack(ack.key) == nil || c.ack(ack.key).acked != ack.acked {
			t.Errorf("record %s = %q, want %q", ack.key, ack.acked, want[ack.key])
		}
	}
	if !reflect.DeepEqual(got, keys) {
		t.Fatalf("record keys = %v, want %v", got, keys)
	}
	if c.ack("k999") != nil {
		t.Fatal("ack found a key never acknowledged")
	}
	queued := append([]string(nil), c.recheck...)
	sort.Strings(queued)
	if !reflect.DeepEqual(queued, keys) {
		t.Fatalf("queued %v, want each of %v once", queued, keys)
	}
}

// TestConcurrentTrialsShareRingMemo: trials on many goroutines — parallel
// evaluation cells, daemon workers — share the point-table memo and
// nothing else. Run under -race; every goroutine must render the log a
// lone trial renders.
func TestConcurrentTrialsShareRingMemo(t *testing.T) {
	// Cold start first: a configuration nothing else in the package uses,
	// so the goroutines race to publish its table.
	coldMembers, coldVNodes := []string{"cold-a", "cold-b", "cold-c"}, 61
	fresh := NewRing(1, coldMembers, coldVNodes)
	var cold sync.WaitGroup
	for g := 0; g < 8; g++ {
		cold.Add(1)
		go func() {
			defer cold.Done()
			r := sharedRing(1, coldMembers, coldVNodes)
			if !reflect.DeepEqual(r.points, fresh.points) ||
				!reflect.DeepEqual(r.PreferenceList("k001", 2), naivePreferenceList(coldMembers, coldVNodes, "k001", 2)) {
				t.Error("shared ring differs from a fresh one")
			}
		}()
	}
	cold.Wait()

	workloads := []cluster.Workload{WorkloadTombstones, WorkloadMembership}
	want := make([]string, len(workloads))
	for i, w := range workloads {
		want[i] = runFree(t, w, 7).RenderLog()
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (g + rep) % len(workloads)
				res, err := cluster.Run(nil, nil, 7, nil, workloads[i], Horizon, 0)
				if err != nil {
					t.Error(err)
				} else if res.RenderLog() != want[i] {
					t.Errorf("goroutine %d rep %d: workload %d rendered a different log", g, rep, i)
				}
			}
		}()
	}
	wg.Wait()
}

var (
	benchCluster *Cluster
	benchOwners  []string
)

// BenchmarkNew prices building one dyn cluster — what every trial of a
// dyn target pays before its first event.
func BenchmarkNew(b *testing.B) {
	cfg := Config{
		Nodes:   []string{"dyn1", "dyn2", "dyn3", "dyn4"},
		Members: []string{"dyn1", "dyn2", "dyn3", "dyn4"},
		N:       3, R: 2, W: 2, VNodes: 64, GCGrace: 400 * des.Millisecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCluster = New(cluster.NewEnv(1, nil), cfg)
	}
}

// BenchmarkPreferenceList prices one lookup the way the audit issues them:
// the same few keys against the same ring, tick after tick.
func BenchmarkPreferenceList(b *testing.B) {
	ring := sharedRing(1, []string{"dyn1", "dyn2", "dyn3", "dyn4"}, 64)
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = keyName(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOwners = ring.PreferenceList(keys[i%len(keys)], 3)
	}
}
