package logdiff

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"anduril/internal/logging"
)

func ent(thread, msg string) logging.Entry {
	return logging.Entry{Thread: thread, Level: logging.Info, Msg: msg}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"sync 37 entries in 12ms": "sync # entries in #ms",
		"no digits here":          "no digits here",
		"2024-11-04 log":          "#-#-# log",
		"blk_1073741825 corrupt":  "blk_# corrupt",
		"":                        "",
		"42":                      "#",
	}
	for in, want := range cases {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q)=%q, want %q", in, got, want)
		}
	}
}

// ids interns a list of raw strings for feeding myers in tests.
func ids(ss ...string) []int32 {
	out := make([]int32, len(ss))
	for i, s := range ss {
		out[i] = logging.SanitizeID(s)
	}
	return out
}

// myers runs the diff core on a scratch of its own and returns a copy of
// the matches (nil when there are none).
func myers(a, b []int32) [][2]int {
	var sc Scratch
	return append([][2]int(nil), sc.myers(a, b)...)
}

// lcsLenRef is a reference quadratic LCS length implementation.
func lcsLenRef(a, b []int32) int {
	n, m := len(a), len(b)
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			if a[i-1] == b[j-1] {
				dp[i][j] = dp[i-1][j-1] + 1
			} else if dp[i-1][j] > dp[i][j-1] {
				dp[i][j] = dp[i-1][j]
			} else {
				dp[i][j] = dp[i][j-1]
			}
		}
	}
	return dp[n][m]
}

func TestMyersMatchesAreValid(t *testing.T) {
	a := ids("a", "b", "c", "d", "e")
	b := ids("z", "b", "c", "y", "e", "w")
	matches := myers(a, b)
	// Matches must be equal elements, strictly increasing on both sides.
	prev := [2]int{-1, -1}
	for _, m := range matches {
		if a[m[0]] != b[m[1]] {
			t.Fatalf("match of unequal elements: %v", m)
		}
		if m[0] <= prev[0] || m[1] <= prev[1] {
			t.Fatalf("non-increasing match %v after %v", m, prev)
		}
		prev = m
	}
	if len(matches) != lcsLenRef(a, b) {
		t.Fatalf("matches=%d, LCS=%d", len(matches), lcsLenRef(a, b))
	}
}

func TestMyersEdgeCases(t *testing.T) {
	if m := myers(nil, ids("x")); m != nil {
		t.Fatalf("empty a: %v", m)
	}
	if m := myers(ids("x"), nil); m != nil {
		t.Fatalf("empty b: %v", m)
	}
	same := ids("p", "q", "r")
	m := myers(same, same)
	if len(m) != 3 {
		t.Fatalf("identical: %v", m)
	}
	disjoint := myers(ids("a", "b"), ids("c", "d"))
	if len(disjoint) != 0 {
		t.Fatalf("disjoint: %v", disjoint)
	}
}

// Property: myers produces a maximum matching (equals LCS length) on random
// small inputs, with valid strictly-increasing equal-element pairs.
func TestMyersProperty(t *testing.T) {
	alphabet := ids("a", "b", "c")
	f := func(seedA, seedB uint16) bool {
		ra := rand.New(rand.NewSource(int64(seedA)))
		rb := rand.New(rand.NewSource(int64(seedB)))
		a := make([]int32, ra.Intn(20))
		for i := range a {
			a[i] = alphabet[ra.Intn(len(alphabet))]
		}
		b := make([]int32, rb.Intn(20))
		for i := range b {
			b[i] = alphabet[rb.Intn(len(alphabet))]
		}
		matches := myers(a, b)
		prev := [2]int{-1, -1}
		for _, m := range matches {
			if a[m[0]] != b[m[1]] || m[0] <= prev[0] || m[1] <= prev[1] {
				return false
			}
			prev = m
		}
		return len(matches) == lcsLenRef(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFindsFailureOnlyMessages(t *testing.T) {
	run := []logging.Entry{
		ent("worker", "started"),
		ent("worker", "wrote 10 bytes"),
		ent("gc", "collected"),
	}
	failure := []logging.Entry{
		ent("worker", "started"),
		ent("worker", "wrote 999 bytes"), // same after sanitize
		ent("worker", "sync timeout after 30s"),
		ent("gc", "collected"),
	}
	res := Compare(run, failure)
	want := []Key{{Thread: "worker", Msg: "sync timeout after #s"}}
	if !reflect.DeepEqual(res.MissingKeys(), want) {
		t.Fatalf("missing=%v, want %v", res.MissingKeys(), want)
	}
	if pos := res.Missing[want[0]]; len(pos) != 1 || pos[0] != 2 {
		t.Fatalf("positions=%v", pos)
	}
}

func TestCompareThreadOnlyInFailure(t *testing.T) {
	run := []logging.Entry{ent("main", "boot")}
	failure := []logging.Entry{
		ent("main", "boot"),
		ent("recovery-1", "recovering block"),
		ent("recovery-1", "recovery failed"),
	}
	res := Compare(run, failure)
	if len(res.Missing) != 2 {
		t.Fatalf("missing=%v", res.MissingKeys())
	}
	for _, k := range res.MissingKeys() {
		if k.Thread != "recovery-1" {
			t.Fatalf("unexpected key %v", k)
		}
	}
}

func TestCompareIgnoresInterleaving(t *testing.T) {
	// Same per-thread content, different interleaving: no missing messages.
	run := []logging.Entry{
		ent("a", "one"), ent("b", "uno"), ent("a", "two"), ent("b", "dos"),
	}
	failure := []logging.Entry{
		ent("b", "uno"), ent("b", "dos"), ent("a", "one"), ent("a", "two"),
	}
	res := Compare(run, failure)
	if len(res.Missing) != 0 {
		t.Fatalf("missing=%v", res.MissingKeys())
	}
}

func TestCompareRepeatedMessages(t *testing.T) {
	// Failure log has three retries; run log only one: the extra retries
	// match only once each, so the message is NOT missing (it appears in
	// both), which is the correct per-paper semantics: the observable set is
	// messages, not message counts... but extra unmatched occurrences do
	// surface as missing occurrences of the same key.
	run := []logging.Entry{ent("w", "retrying")}
	failure := []logging.Entry{ent("w", "retrying"), ent("w", "retrying"), ent("w", "retrying")}
	res := Compare(run, failure)
	k := Key{Thread: "w", Msg: "retrying"}
	if len(res.Missing[k]) != 2 {
		t.Fatalf("missing occurrences=%v", res.Missing[k])
	}
}

func TestMonotonicFilter(t *testing.T) {
	pairs := []matchPair{{a: 1, b: 5}, {a: 2, b: 3}, {a: 3, b: 4}, {a: 4, b: 9}}
	got := monotonic(pairs)
	// Longest strictly-increasing-b subsequence: (2,3),(3,4),(4,9).
	if len(got) != 3 || got[0].b != 3 || got[2].b != 9 {
		t.Fatalf("monotonic=%v", got)
	}
}

func TestAlignmentInterpolation(t *testing.T) {
	res := &Result{Matches: []matchPair{{a: 10, b: 20}, {a: 20, b: 60}}}
	al := NewAlignment(res, 30, 80)
	cases := []struct {
		pos  int
		want float64
	}{
		{0, 0}, {5, 10}, {10, 20}, {15, 40}, {20, 60}, {25, 70}, {30, 80},
	}
	for _, c := range cases {
		if got := al.Map(c.pos); got != c.want {
			t.Errorf("Map(%d)=%v, want %v", c.pos, got, c.want)
		}
	}
}

func TestAlignmentNoAnchors(t *testing.T) {
	al := NewAlignment(&Result{}, 100, 50)
	if got := al.Map(50); got != 25 {
		t.Fatalf("proportional Map(50)=%v", got)
	}
	empty := NewAlignment(&Result{}, 0, 50)
	if got := empty.Map(0); got != 0 {
		t.Fatalf("empty Map=%v", got)
	}
}

// Property: alignment is monotone non-decreasing in the run position.
func TestAlignmentMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		pairs := make([]matchPair, n)
		a, b := 0, 0
		for i := range pairs {
			a += 1 + r.Intn(10)
			b += 1 + r.Intn(10)
			pairs[i] = matchPair{a: a, b: b}
		}
		al := NewAlignment(&Result{Matches: pairs}, a+10, b+10)
		prev := -1.0
		for p := 0; p <= a+10; p++ {
			v := al.Map(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare of a log against itself yields no missing messages and
// anchors covering every entry.
func TestCompareSelfProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		threads := []string{"t1", "t2", "t3"}
		msgs := []string{"alpha", "beta", "gamma", "delta"}
		n := r.Intn(40)
		log := make([]logging.Entry, n)
		for i := range log {
			log[i] = ent(threads[r.Intn(3)], msgs[r.Intn(4)])
		}
		res := Compare(log, log)
		if len(res.Missing) != 0 {
			return false
		}
		// Self-compare must anchor every position to itself.
		if len(res.Matches) != n {
			return false
		}
		sort.Slice(res.Matches, func(i, j int) bool { return res.Matches[i].a < res.Matches[j].a })
		for i, m := range res.Matches {
			if m.a != i || m.b != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
