package dyn

// Property tests for the two algebraic cores of the package: vector-clock
// dominance (what keeps concurrent writes as siblings and lets tombstones
// win) and consistent-hash preference lists (what makes quorum overlap
// hold across membership changes).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// qvc is a quick generator for small vector clocks over the four-node
// universe the workloads use. Small counters make equal and comparable
// clocks common enough that the implication properties are exercised on
// their non-vacuous side.
type qvc VClock

func (qvc) Generate(r *rand.Rand, _ int) reflect.Value {
	vc := mapClock{}
	for _, node := range fourNodes {
		if n := r.Intn(4); n > 0 {
			vc[node] = n
		}
	}
	return reflect.ValueOf(qvc(vc.clock()))
}

var fourNodes = []string{"dyn1", "dyn2", "dyn3", "dyn4"}

// skewNodes are names whose byte order differs from their length order
// ("n10" < "n2" < "n9" < "na"; "n" is a prefix of all of them), so a clock
// that ordered or rendered its pairs by anything but the node bytes would
// disagree with the oracle.
var skewNodes = []string{"n9", "n10", "n", "na", "n2", "N"}

// mapClock is the clock dyn used before VClock became an immutable value:
// a map from node to counter, copied on every operation. It stays here as
// the oracle the sorted-pair implementation is checked against.
type mapClock map[string]int

func (v mapClock) copy() mapClock {
	out := make(mapClock, len(v)+1)
	for node, n := range v {
		out[node] = n
	}
	return out
}

func (v mapClock) tick(node string) mapClock {
	out := v.copy()
	out[node]++
	return out
}

func (v mapClock) merge(o mapClock) mapClock {
	out := v.copy()
	for node, n := range o {
		if n > out[node] {
			out[node] = n
		}
	}
	return out
}

func (v mapClock) descends(o mapClock) bool {
	for node, n := range o {
		if v[node] < n {
			return false
		}
	}
	return true
}

func (v mapClock) concurrent(o mapClock) bool { return !v.descends(o) && !o.descends(v) }
func (v mapClock) equal(o mapClock) bool      { return v.descends(o) && o.descends(v) }

func (v mapClock) String() string {
	nodes := make([]string, 0, len(v))
	for node, n := range v {
		if n != 0 {
			nodes = append(nodes, node)
		}
	}
	sort.Strings(nodes)
	parts := make([]string, len(nodes))
	for i, node := range nodes {
		parts[i] = fmt.Sprintf("%s:%d", node, v[node])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// clock builds the VClock with the oracle's counters through the public
// constructor only: Tick, one node at a time in map (random) order.
func (v mapClock) clock() VClock {
	var out VClock
	for node, n := range v {
		for i := 0; i < n; i++ {
			out = out.Tick(node)
		}
	}
	return out
}

// checkClockPair checks every clock operation on (a, b) against the
// oracle, and that none of them wrote through an operand.
func checkClockPair(t *testing.T, nodes []string, ma, mb mapClock) {
	t.Helper()
	a, b := ma.clock(), mb.clock()
	snapA, snapB := append([]clockPair(nil), a.pairs...), append([]clockPair(nil), b.pairs...)
	if a.String() != ma.String() || b.String() != mb.String() {
		t.Fatalf("String: %s / %s, oracle %s / %s", a, b, ma, mb)
	}
	if got, want := a.Descends(b), ma.descends(mb); got != want {
		t.Fatalf("%s Descends %s = %v, oracle %v", a, b, got, want)
	}
	if got, want := b.Descends(a), mb.descends(ma); got != want {
		t.Fatalf("%s Descends %s = %v, oracle %v", b, a, got, want)
	}
	if got, want := a.Concurrent(b), ma.concurrent(mb); got != want {
		t.Fatalf("%s Concurrent %s = %v, oracle %v", a, b, got, want)
	}
	if got, want := a.Equal(b), ma.equal(mb); got != want {
		t.Fatalf("%s Equal %s = %v, oracle %v", a, b, got, want)
	}
	if got, want := a.Merge(b).String(), ma.merge(mb).String(); got != want {
		t.Fatalf("%s Merge %s = %s, oracle %s", a, b, got, want)
	}
	if got, want := b.Merge(a).String(), mb.merge(ma).String(); got != want {
		t.Fatalf("%s Merge %s = %s, oracle %s", b, a, got, want)
	}
	for _, node := range nodes {
		if got, want := a.Tick(node).String(), ma.tick(node).String(); got != want {
			t.Fatalf("%s Tick %s = %s, oracle %s", a, node, got, want)
		}
		if got, want := a.Merge(b).Tick(node).String(), ma.merge(mb).tick(node).String(); got != want {
			t.Fatalf("(%s Merge %s) Tick %s = %s, oracle %s", a, b, node, got, want)
		}
	}
	if !reflect.DeepEqual(snapA, a.pairs) || !reflect.DeepEqual(snapB, b.pairs) {
		t.Fatalf("an operation changed an operand: %v -> %s, %v -> %s", snapA, a, snapB, b)
	}
	for i := 1; i < len(a.pairs); i++ {
		if a.pairs[i-1].node >= a.pairs[i].node {
			t.Fatalf("pairs of %s not strictly node-sorted", a)
		}
	}
}

func randomMapClock(r *rand.Rand, nodes []string, max int) mapClock {
	vc := mapClock{}
	for _, node := range nodes {
		if n := r.Intn(max + 1); n > 0 {
			vc[node] = n
		}
	}
	return vc
}

// TestVClockAgainstMapOracle: the immutable sorted-pair clock computes what
// the map clock did, over the workloads' node names and over names whose
// byte order is not their length order, with counters crossing 9 → 10 so a
// rendering that padded or compared numerically would show.
func TestVClockAgainstMapOracle(t *testing.T) {
	for _, nodes := range [][]string{fourNodes, skewNodes} {
		r := rand.New(rand.NewSource(23))
		for i := 0; i < 2000; i++ {
			max := 3
			if i%4 == 0 {
				max = 12
			}
			checkClockPair(t, nodes, randomMapClock(r, nodes, max), randomMapClock(r, nodes, max))
		}
	}
	var zero VClock
	if zero.String() != "{}" || !zero.Equal(VClock{}) || !zero.Descends(zero) || zero.Concurrent(zero) {
		t.Fatalf("zero clock misbehaves: %s", zero)
	}
}

// FuzzVClock feeds checkClockPair from bytes: byte 2i is node i's counter
// in a, byte 2i+1 in b, over the universe the first byte picks.
func FuzzVClock(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 0, 3, 1})
	f.Add([]byte{1, 9, 10, 10, 9, 0, 0, 1, 1, 11, 2, 0, 7})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nodes := fourNodes
		if data[0]%2 == 1 {
			nodes = skewNodes
		}
		ma, mb := mapClock{}, mapClock{}
		for i, c := range data[1:] {
			if i/2 >= len(nodes) {
				break
			}
			if n := int(c % 13); n > 0 {
				if i%2 == 0 {
					ma[nodes[i/2]] = n
				} else {
					mb[nodes[i/2]] = n
				}
			}
		}
		checkClockPair(t, nodes, ma, mb)
	})
}

// TestSortVersionsOrdersByRenderedClock: siblings with equal value are
// ordered by the clock's *string*, so {dyn1:10} sorts before {dyn1:9}.
// readResp exposes that order; it must not become numeric.
func TestSortVersionsOrdersByRenderedClock(t *testing.T) {
	nine := mapClock{"dyn1": 9, "dyn2": 1}.clock()
	ten := mapClock{"dyn1": 10}.clock()
	set := []Version{{Val: "v", VC: nine}, {Val: "v", VC: ten}, {Val: "v", VC: nine, Tomb: true}, {Val: "a", VC: nine}}
	sortVersions(set)
	var got []string
	for _, v := range set {
		got = append(got, fmt.Sprintf("%s/%s/%v", v.Val, v.VC, v.Tomb))
	}
	want := []string{"a/{dyn1:9,dyn2:1}/false", "v/{dyn1:10}/false", "v/{dyn1:9,dyn2:1}/false", "v/{dyn1:9,dyn2:1}/true"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sortVersions order = %v, want %v", got, want)
	}
	// The same through addVersion, the only caller: two concurrent
	// siblings come back in rendered-clock order whichever arrives first.
	a := Version{Val: "v", VC: mapClock{"dyn1": 10}.clock()}
	b := Version{Val: "v", VC: mapClock{"dyn1": 9, "dyn2": 1}.clock()}
	for _, order := range [][2]Version{{a, b}, {b, a}} {
		set := addVersion(addVersion(nil, order[0]), order[1])
		if len(set) != 2 || !set[0].VC.Equal(a.VC) || !set[1].VC.Equal(b.VC) {
			t.Fatalf("addVersion order = %v", set)
		}
	}
}

func TestVClockMergeCommutative(t *testing.T) {
	prop := func(a, b qvc) bool {
		ab := VClock(a).Merge(VClock(b))
		ba := VClock(b).Merge(VClock(a))
		return ab.Equal(ba)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVClockMergeDominatesBoth(t *testing.T) {
	prop := func(a, b qvc) bool {
		m := VClock(a).Merge(VClock(b))
		return m.Descends(VClock(a)) && m.Descends(VClock(b))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVClockDominanceAntisymmetric(t *testing.T) {
	prop := func(a, b qvc) bool {
		va, vb := VClock(a), VClock(b)
		if va.Descends(vb) && vb.Descends(va) {
			return va.Equal(vb)
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVClockConcurrentKeepsSiblings: folding two concurrent versions into
// a set keeps both; folding a dominated version drops it.
func TestVClockConcurrentKeepsSiblings(t *testing.T) {
	prop := func(a, b qvc) bool {
		va, vb := VClock(a), VClock(b)
		set := addVersion(nil, Version{Val: "x", VC: va})
		set = addVersion(set, Version{Val: "y", VC: vb})
		switch {
		case va.Concurrent(vb):
			return len(set) == 2
		case va.Equal(vb):
			return len(set) == 1 && set[0].Val == "x"
		case vb.Descends(va):
			return len(set) == 1 && set[0].Val == "y"
		default: // va strictly dominates vb
			return len(set) == 1 && set[0].Val == "x"
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// ringPool is the member universe the ring properties draw from.
var ringPool = []string{"m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8"}

// qring is a quick generator for a random membership subset (size ≥ 3)
// and a random key.
type qring struct {
	members []string
	key     string
}

func (qring) Generate(r *rand.Rand, _ int) reflect.Value {
	size := 3 + r.Intn(len(ringPool)-2)
	perm := r.Perm(len(ringPool))
	members := make([]string, size)
	for i := 0; i < size; i++ {
		members[i] = ringPool[perm[i]]
	}
	return reflect.ValueOf(qring{members: members, key: fmt.Sprintf("key-%d", r.Intn(1000))})
}

// TestRingPreferenceListDistinctOwners: every key is owned by exactly
// min(n, |members|) distinct members.
func TestRingPreferenceListDistinctOwners(t *testing.T) {
	prop := func(q qring, nRaw uint8) bool {
		n := 1 + int(nRaw)%4
		ring := NewRing(1, q.members, 16)
		pref := ring.PreferenceList(q.key, n)
		want := n
		if want > len(q.members) {
			want = len(q.members)
		}
		if len(pref) != want {
			return false
		}
		seen := map[string]bool{}
		for _, owner := range pref {
			if seen[owner] || !ring.Contains(owner) {
				return false
			}
			seen[owner] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRingStableUnderUnrelatedRemove: removing a member outside a key's
// preference list leaves the preference list unchanged — the consistent-
// hashing locality guarantee that keeps rebalances proportional to the
// moved ranges.
func TestRingStableUnderUnrelatedRemove(t *testing.T) {
	prop := func(q qring) bool {
		const n = 2
		ring := NewRing(1, q.members, 16)
		pref := ring.PreferenceList(q.key, n)
		inPref := map[string]bool{}
		for _, owner := range pref {
			inPref[owner] = true
		}
		for _, victim := range q.members {
			if inPref[victim] {
				continue
			}
			var rest []string
			for _, m := range q.members {
				if m != victim {
					rest = append(rest, m)
				}
			}
			got := NewRing(2, rest, 16).PreferenceList(q.key, n)
			if !reflect.DeepEqual(got, pref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRingStableUnderAdd: adding a member changes a key's preference list
// by at most inserting the newcomer — every other owner was an owner
// before, and at most one old owner is displaced. This is the overlap
// property the f29 scenario's quorum reasoning rests on.
func TestRingStableUnderAdd(t *testing.T) {
	prop := func(q qring) bool {
		const n = 2
		newcomer := "m9"
		ring := NewRing(1, q.members, 16)
		pref := ring.PreferenceList(q.key, n)
		inPref := map[string]bool{}
		for _, owner := range pref {
			inPref[owner] = true
		}
		grown := NewRing(2, append(append([]string(nil), q.members...), newcomer), 16)
		got := grown.PreferenceList(q.key, n)
		overlap := 0
		for _, owner := range got {
			switch {
			case owner == newcomer:
			case inPref[owner]:
				overlap++
			default:
				return false // an old non-owner appeared from nowhere
			}
		}
		return overlap >= n-1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecordMatchesFormat: the lines of commit.log, tombstones.log and
// hints.log are what Sprintf("%s %s %s\n", a, b, clock) wrote, and the
// scratch buffer carries nothing from one record into the next.
func TestRecordMatchesFormat(t *testing.T) {
	c := &Cluster{}
	long := mapClock{"dyn1": 10, "dyn3": 2, "dyn4": 999}.clock()
	for _, r := range []struct {
		a, b string
		vc   VClock
	}{
		{"k001", "v001", long},
		{"k002", "tombstone", VClock{}},
		{"dyn3", "k1", long.Tick("dyn2")},
		{"", "", VClock{}},
	} {
		want := fmt.Sprintf("%s %s %s\n", r.a, r.b, r.vc)
		if got := string(c.record(r.a, r.b, r.vc)); got != want {
			t.Fatalf("record = %q, want %q", got, want)
		}
	}
}
