package inject

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genPathAddr builds a random but well-formed PathAddr: dotted edge
// labels and terminal sites drawn from a small alphabet, sequence and
// occurrence numbers in a small positive range, and (one time in four)
// an env pseudo-site terminal, which the grammar addresses edge-less.
func genPathAddr(r *rand.Rand) PathAddr {
	labels := []string{"client.put", "coord.write", "dyn.store.persist", "a", "x.y.z-w"}
	if r.Intn(4) == 0 {
		site := PseudoSiteID(EnvCrash, "n1", "")
		if r.Intn(2) == 0 {
			site = PseudoSiteID(EnvPartition, "n1", "n2")
		}
		return PathAddr{Site: site, N: r.Intn(9) + 1}
	}
	a := PathAddr{Site: labels[r.Intn(len(labels))], N: r.Intn(9) + 1}
	for i := r.Intn(4); i > 0; i-- {
		a.Edges = append(a.Edges, PathEdge{
			Label: labels[r.Intn(len(labels))],
			Seq:   r.Intn(3) + 1,
		})
	}
	return a
}

// TestPathAddrQuickRoundTrip: the canonical string form and the struct
// form are inverses over the whole grammar, env pseudo-sites included.
func TestPathAddrQuickRoundTrip(t *testing.T) {
	round := func(a PathAddr) bool {
		s := a.String()
		got, ok := ParsePathAddr(s)
		return ok && reflect.DeepEqual(got, a) && got.String() == s
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genPathAddr(r))
		},
	}
	if err := quick.Check(round, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPathAddrParseRejects(t *testing.T) {
	for _, s := range []string{
		"",                    // no terminal
		"a.b",                 // missing #n
		"a.b#0",               // occurrence must be 1-based
		"a.b#-1",              // negative
		"a.b#x",               // non-numeric
		"#3",                  // empty site
		">a.b#1",              // empty edge label
		"a[0]>b#1",            // sequence must be 1-based
		"a[2>b#1",             // unterminated seq
		"a[x]>b#1",            // non-numeric seq
		"a+b>c#1",             // '+' is reserved for pair member refs
		"a:1>c#1",             // ':' is reserved for member refs
		"env/bogus-class/x#1", // unknown env class
	} {
		if _, ok := ParsePathAddr(s); ok {
			t.Errorf("ParsePathAddr(%q) accepted", s)
		}
	}
}

func TestPathAddrCanonicalSeqOne(t *testing.T) {
	a := PathAddr{Edges: []PathEdge{{Label: "client.put", Seq: 1}, {Label: "coord.write", Seq: 2}},
		Site: "dyn.store.persist", N: 1}
	if got, want := a.String(), "client.put>coord.write[2]>dyn.store.persist#1"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestPairInstanceRoundTrip: pair instances survive the member-ref
// encoding in both addressing modes, including self-pairs.
func TestPairInstanceRoundTrip(t *testing.T) {
	cases := [][2]Instance{
		{{Site: "a.x", Occurrence: 3}, {Site: "b.y", Occurrence: 7}},
		{{Site: "b.y", Occurrence: 7}, {Site: "a.x", Occurrence: 3}},          // order-insensitive
		{{Site: "a.x", Occurrence: 1}, {Site: "a.x", Occurrence: 2}},          // self-pair
		{{Site: "a.x", Path: "r>a.x#2"}, {Site: "b.y", Path: "r[3]>b.y#1"}},   // path-addressed
		{{Site: "env/crash/n1", Occurrence: 4}, {Site: "a.x", Occurrence: 1}}, // site×env
	}
	for _, c := range cases {
		pi := PairInstance(c[0], c[1])
		if !IsPairSite(pi.Site) {
			t.Fatalf("pair site %q not recognized", pi.Site)
		}
		a, b, ok := PairMembers(pi)
		if !ok {
			t.Fatalf("PairMembers(%v) failed", pi)
		}
		// Members come back in canonical order; compare as a set.
		in := map[Instance]bool{c[0]: true, c[1]: true}
		if !in[a] || !in[b] || (a == b && c[0] != c[1]) {
			t.Fatalf("members (%v, %v) != inputs %v", a, b, c)
		}
		// The pseudo-site is order-insensitive.
		if pi2 := PairInstance(c[1], c[0]); pi2.Site != pi.Site || pi2.Path != pi.Path {
			t.Fatalf("PairInstance not symmetric: %v vs %v", pi, pi2)
		}
	}
}

// TestUniformDecideShortCircuit: one Decide stream per round, shared by
// error sites and env pseudo-sites. Once the budget is spent on either
// class, reaches of the other class must not consult the plan — they are
// not injection requests, so Decisions() stops counting.
func TestUniformDecideShortCircuit(t *testing.T) {
	envSite := PseudoSiteID(EnvCrash, "n1", "")

	t.Run("site injection silences env reaches", func(t *testing.T) {
		r := NewRuntime(Exact(Instance{Site: "a.x", Occurrence: 1}))
		r.Enable(EnvFaults)
		if err := r.Reach("a.x", IO); err == nil {
			t.Fatal("target reach did not inject")
		}
		before, _ := r.Decisions()
		if _, ok := r.ReachPseudo(envSite, 0); ok {
			t.Fatal("env reach injected after the budget was spent")
		}
		if err := r.Reach("a.x", IO); err != nil {
			t.Fatal("second site reach injected after the budget was spent")
		}
		if n, _ := r.Decisions(); n != before {
			t.Fatalf("plan consulted %d more times after the budget was spent", n-before)
		}
	})

	t.Run("env injection silences site reaches", func(t *testing.T) {
		r := NewRuntime(Exact(Instance{Site: envSite, Occurrence: 1}))
		if _, ok := r.ReachPseudo(envSite, 0); !ok {
			t.Fatal("target env reach did not inject")
		}
		before, _ := r.Decisions()
		if err := r.Reach("a.x", IO); err != nil {
			t.Fatal("site reach injected after the budget was spent")
		}
		if _, ok := r.ReachPseudo(envSite, 0); ok {
			t.Fatal("second env reach injected after the budget was spent")
		}
		if n, _ := r.Decisions(); n != before {
			t.Fatalf("plan consulted %d more times after the budget was spent", n-before)
		}
	})
}

// TestPairPlanCommitAndReset: the first member reached commits the round
// to one pair, only that pair's other member may then fire, and Reset
// restores the plan for a fresh trial.
func TestPairPlanCommitAndReset(t *testing.T) {
	p := Window([]Instance{
		PairInstance(Instance{Site: "a.x", Occurrence: 1}, Instance{Site: "b.y", Occurrence: 2}),
		PairInstance(Instance{Site: "c.z", Occurrence: 1}, Instance{Site: "b.y", Occurrence: 1}),
	})
	if p.Budget() != 2 {
		t.Fatalf("Budget()=%d, want 2", p.Budget())
	}
	if _, ok := p.Committed(); ok {
		t.Fatal("committed before any member fired")
	}
	// b.y#1 is a member of the second pair only.
	if !p.Decide("b.y", 1, "") {
		t.Fatal("first member of pair 1 did not fire")
	}
	if idx, ok := p.Committed(); !ok || idx != 1 {
		t.Fatalf("Committed()=(%d,%v), want (1,true)", idx, ok)
	}
	// Members of the uncommitted pair are dead now.
	if p.Decide("a.x", 1, "") || p.Decide("b.y", 2, "") {
		t.Fatal("member of an uncommitted pair fired after commit")
	}
	// The committed member does not fire twice.
	if p.Decide("b.y", 1, "") {
		t.Fatal("same member fired twice")
	}
	if !p.Decide("c.z", 1, "") {
		t.Fatal("other member of the committed pair did not fire")
	}
	p.Reset()
	if _, ok := p.Committed(); ok {
		t.Fatal("Reset did not uncommit")
	}
	if !p.Decide("a.x", 1, "") {
		t.Fatal("after Reset the first pair cannot commit")
	}
}
