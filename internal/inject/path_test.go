package inject

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
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
		// Non-canonical renderings of a>s#1 and a[2]>s#1: String never
		// writes them, so a key folded from one would equal the key of a
		// string it is not equal to.
		"a[1]>s#1",        // seq 1 is written without brackets
		"a[02]>s#1",       // leading zero in a seq
		"a[+2]>s#1",       // sign in a seq
		"a>s#01",          // leading zero in the occurrence
		"a>s#+1",          // sign in the occurrence
		"env/crash/n1#01", // the same, on a pseudo-site terminal
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
	if !p.Decide("b.y", 1, PathKey{}, nil) {
		t.Fatal("first member of pair 1 did not fire")
	}
	if idx, ok := p.Committed(); !ok || idx != 1 {
		t.Fatalf("Committed()=(%d,%v), want (1,true)", idx, ok)
	}
	// Members of the uncommitted pair are dead now.
	if p.Decide("a.x", 1, PathKey{}, nil) || p.Decide("b.y", 2, PathKey{}, nil) {
		t.Fatal("member of an uncommitted pair fired after commit")
	}
	// The committed member does not fire twice.
	if p.Decide("b.y", 1, PathKey{}, nil) {
		t.Fatal("same member fired twice")
	}
	if !p.Decide("c.z", 1, PathKey{}, nil) {
		t.Fatal("other member of the committed pair did not fire")
	}
	p.Reset()
	if _, ok := p.Committed(); ok {
		t.Fatal("Reset did not uncommit")
	}
	if !p.Decide("a.x", 1, PathKey{}, nil) {
		t.Fatal("after Reset the first pair cannot commit")
	}
}

// TestPlanKeyCollision: a key hit is confirmed by string, so two different
// addresses sharing one chain hash stay two addresses. The collision is
// staged, not found — A, B and the reaches of s0#1, s1#1, s2#1 are all
// handed the same hash — and each reach must fire the member whose Path it
// spells and nothing else, whichever member the index happens to hold,
// before a commit (two window candidates) and inside a committed candidate
// of two members (the shape of a pair).
func TestPlanKeyCollision(t *testing.T) {
	const k = 0xfeedface
	at := PathKey{Hash: k, N: 1} // root context, first occurrence
	a := Instance{Site: "s0", Path: "s0#1"}.Keyed(k)
	b := Instance{Site: "s1", Path: "s1#1"}.Keyed(k)

	for _, order := range [][]Instance{{a, b}, {b, a}} {
		p := Window(order)
		if p.Decide("s2", 1, at, nil) {
			t.Fatal("a reach that only shares the members' key fired")
		}
		if _, ok := p.Committed(); ok {
			t.Fatal("a colliding reach committed the plan")
		}
		if !p.Decide("s1", 1, at, nil) {
			t.Fatalf("s1#1 did not fire with %v armed first", order[0])
		}
		if idx, _ := p.Committed(); order[idx].Path != "s1#1" {
			t.Fatalf("s1#1 committed candidate %d (%s)", idx, order[idx].Path)
		}
		if p.Decide("s0", 1, at, nil) {
			t.Fatal("the other window candidate fired after the commit")
		}
	}

	p := Exact(a, b)
	if p.Decide("s2", 1, at, nil) {
		t.Fatal("colliding reach fired before the commit")
	}
	if !p.Decide("s1", 1, at, nil) {
		t.Fatal("s1#1 did not fire its member")
	}
	if p.Decide("s2", 1, at, nil) || p.Decide("s1", 1, at, nil) {
		t.Fatal("inside the committed candidate, a colliding or an already-fired reach fired")
	}
	if !p.Decide("s0", 1, at, nil) {
		t.Fatal("s0#1 did not fire the committed candidate's other member")
	}

	// The same through a runtime: a member whose key is wrong for its
	// Path is unreachable, never misfired.
	r := NewRuntime(Window([]Instance{{Site: "s0", Path: "s0#1"}, Instance{Site: "s1", Path: "s1#2"}.Keyed(k)}))
	if r.Reach("s1", IO) != nil || r.Reach("s1", IO) != nil {
		t.Fatal("a member armed under the wrong key fired")
	}
	if r.Reach("s0", IO) == nil {
		t.Fatal("the wire member, keyed by the plan itself, did not fire")
	}
	if ev, _ := r.Injected(); r.PathOf(ev.Site, ev.Addr) != "s0#1" {
		t.Fatalf("injected reach renders %q", r.PathOf(ev.Site, ev.Addr))
	}
}

// TestTraceEventSize: the path identity replaced the path string in place.
// A kept trace holds one TraceEvent per reach of the run in every mode, so
// growing it is paid by occurrence-mode runs that never look at a path.
func TestTraceEventSize(t *testing.T) {
	if got := unsafe.Sizeof(TraceEvent{}); got > 88 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Fatalf("TraceEvent is %d bytes, was 88 with a Path string", got)
	}
	if got := unsafe.Sizeof(PathKey{}); got != unsafe.Sizeof("") && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Fatalf("PathKey is %d bytes, the string header it replaced %d", got, unsafe.Sizeof(""))
	}
}

// FuzzParsePathAddr: the parser never panics, and what it accepts is
// canonical — rendering the parsed address gives the input back, so two
// accepted strings with equal addresses (hence equal chain hashes) are the
// same string.
func FuzzParsePathAddr(f *testing.F) {
	for _, s := range []string{
		"a.b#1", "client.put>coord.write[2]>dyn.store.persist#1", "env/crash/n1#4",
		"partial/net/dup-deliver/a>b#2", "a[1]>s#1", "a[02]>s#1", "a>s#+1", "a>s#01",
		"a[2]x>s#1", "a[2][3]>s#1", ">", "#", "a>>b#1", "a[18446744073709551616]>b#1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		addr, ok := ParsePathAddr(s)
		if !ok {
			if h, hashed := PathHash(s); hashed {
				t.Fatalf("PathHash(%q)=%x for a string ParsePathAddr rejects", s, h)
			}
			return
		}
		if got := addr.String(); got != s {
			t.Fatalf("ParsePathAddr(%q) accepted, but renders %q", s, got)
		}
		if _, hashed := PathHash(s); !hashed {
			t.Fatalf("PathHash rejects %q, which ParsePathAddr accepts", s)
		}
	})
}
