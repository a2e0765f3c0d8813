package inject

// Fuzz targets for the plan invariants the explorer relies on:
//
//   - the one Plan decides every reach, in both dispatch modes, exactly as
//     the plan types it replaced did — the differential against the
//     reference semantics of oracle_test.go: same decision at every reach,
//     same commit, same budget, same features, and Reset restores the
//     pre-run state;
//   - a path-addressed member matches by chain hash exactly the reaches the
//     oracle matches by string equality, whether the plan was armed from
//     wire strings or from key-carrying instances;
//   - a plan never fires twice for the same (site, occ) in one run;
//   - a run never injects more faults than the plan's budget;
//   - a multi-member Exact's budget is its number of members.
//
// Each FuzzX function doubles as a property test over its seed corpus
// under plain `go test`; CI additionally runs each with -fuzz for a short
// randomized budget.

import (
	"fmt"
	"testing"

	"anduril/internal/des"
)

// fuzzSite maps a byte onto a small site alphabet so reach sequences
// collide with plan candidates often enough to be interesting.
func fuzzSite(b byte) string { return fmt.Sprintf("s%d", b%6) }

// fuzzOcc maps a byte onto a small 1-based occurrence range.
func fuzzOcc(b byte) int { return int(b%8) + 1 }

// reach is one consultation of a plan: the site, its occurrence, the
// PathKey the runtime would hand Decide under path addressing — and the
// canonical string that key renders to, which is all the oracle sees.
type reach struct {
	site string
	occ  int
	path string
	at   PathKey
}

// fuzzTree is the call tree behind every fuzzed reach: the root and two
// send edges from it, node 1 "e" and node 2 "e[2]".
var fuzzTree = func() *des.Sim {
	sim := des.New(1)
	sim.EnablePathTracking()
	sim.PathExtend("e")
	sim.PathExtend("e")
	return sim
}()

// reachAt is the reach of site's occ-th occurrence in the context of
// fuzzTree's node: keyed the way Runtime.address does it, and — without
// consulting the tree — spelled the way PathAddr.String does it.
func reachAt(site string, occ int, node int32) reach {
	addr := PathAddr{Site: site, N: occ}
	if node > 0 {
		addr.Edges = []PathEdge{{Label: "e", Seq: int(node)}}
	}
	at := PathKey{Hash: des.PathFold(fuzzTree.PathHash(node), site, occ), Node: node, N: int32(occ)}
	return reach{site, occ, addr.String(), at}
}

// fuzzReach maps a byte onto a reach of the small alphabet; the top bits
// pick the call-path context, root or one of two non-root edges.
func fuzzReach(b byte) reach {
	node := int32(0)
	if ctx := int32(b >> 6); ctx > 1 {
		node = ctx - 1
	}
	return reachAt(fuzzSite(b), fuzzOcc(b>>3), node)
}

func fuzzReaches(bs []byte) []reach {
	out := make([]reach, len(bs))
	for i, b := range bs {
		out[i] = fuzzReach(b)
	}
	return out
}

// membersOf decodes window candidates to their members, as the oracle
// takes them: a pair instance is its two members, anything else itself.
func membersOf(cands []Instance) [][]Instance {
	out := make([][]Instance, len(cands))
	for i, c := range cands {
		if a, b, ok := PairMembers(c); ok {
			out[i] = []Instance{a, b}
		} else {
			out[i] = []Instance{c}
		}
	}
	return out
}

// diffOracle is the differential: plan and the oracle over cands see the
// same reach stream, behind the same budget gate, in occurrence mode (the
// zero PathKey, path "") and in path mode — where the plan is handed keys
// and the oracle the strings they render to. Each mode runs twice with a
// Reset in between; the second pass matching a fresh oracle is what shows
// Reset restored the pre-run state. The plan is left Reset.
func diffOracle(t *testing.T, plan *Plan, cands [][]Instance, reaches []reach) {
	t.Helper()
	wantBudget, wantFeatures := newOracle(cands).shape()
	if plan.Budget() != wantBudget {
		t.Fatalf("Budget()=%d, oracle %d", plan.Budget(), wantBudget)
	}
	if plan.Features() != wantFeatures {
		t.Fatalf("Features()=%03b, oracle %03b", plan.Features(), wantFeatures)
	}
	rt := NewRuntime(plan)
	for _, f := range []Features{EnvFaults, PartialFaults, PathAddressing} {
		if rt.Active(f) != (wantFeatures&f != 0) {
			t.Fatalf("runtime Active(%03b)=%v, oracle features %03b", f, rt.Active(f), wantFeatures)
		}
	}
	for _, pathMode := range []bool{false, true} {
		for pass := 0; pass < 2; pass++ {
			ref := newOracle(cands)
			spent := 0
			for _, r := range reaches {
				path, at := "", PathKey{}
				if pathMode {
					path, at = r.path, r.at
				}
				got := spent < wantBudget && plan.Decide(r.site, r.occ, at, fuzzTree)
				if got {
					spent++
				}
				if want := ref.decide(r.site, r.occ, path); got != want {
					t.Fatalf("pathMode=%v pass %d: Decide(%s,%d,%q)=%v, oracle %v", pathMode, pass, r.site, r.occ, path, got, want)
				}
				if idx, ok := plan.Committed(); ok != (ref.committed >= 0) || ok && idx != ref.committed {
					t.Fatalf("pathMode=%v pass %d: Committed()=(%d,%v), oracle %d", pathMode, pass, idx, ok, ref.committed)
				}
			}
			plan.Reset()
			if _, ok := plan.Committed(); ok {
				t.Fatal("Reset did not uncommit")
			}
		}
	}
}

func FuzzExactPlan(f *testing.F) {
	f.Add(byte(1), byte(2), []byte{1, 1, 1, 7, 1})
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(5), byte(7), []byte{5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, siteSel, occSel byte, reaches []byte) {
		target := Instance{Site: fuzzSite(siteSel), Occurrence: fuzzOcc(occSel)}
		plan := Exact(target)

		diffOracle(t, plan, [][]Instance{{target}}, fuzzReaches(reaches))

		r := NewRuntime(plan)
		counts := map[string]int{}
		injections := 0
		for _, b := range reaches {
			site := fuzzSite(b)
			counts[site]++
			if err := r.Reach(site, IO); err != nil {
				injections++
				fault, ok := AsFault(err)
				if !ok || fault.Site != target.Site || fault.Occurrence != target.Occurrence {
					t.Fatalf("injected %v, want %v", err, target)
				}
			}
		}
		want := 0
		if counts[target.Site] >= target.Occurrence {
			want = 1
		}
		if injections != want {
			t.Fatalf("injections=%d, want %d (site reached %d times, target occ %d)",
				injections, want, counts[target.Site], target.Occurrence)
		}
	})
}

func FuzzWindowPlan(f *testing.F) {
	f.Add([]byte{1, 9, 17}, []byte{1, 2, 3, 1, 1})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{42, 42, 7}, []byte{42, 7, 42, 7})
	f.Fuzz(func(t *testing.T, candBytes, reaches []byte) {
		cands := make([]Instance, 0, len(candBytes))
		inWindow := map[Instance]bool{}
		for _, b := range candBytes {
			inst := Instance{Site: fuzzSite(b), Occurrence: fuzzOcc(b >> 3)}
			cands = append(cands, inst)
			inWindow[inst] = true
		}
		plan := Window(cands)

		diffOracle(t, plan, membersOf(cands), fuzzReaches(reaches))

		// Through the runtime: the first reach hitting the window fires,
		// nothing after it (budget 1), never twice for one (site, occ).
		r := NewRuntime(plan)
		counts := map[string]int{}
		var fired []Instance
		expectFired := false
		for _, b := range reaches {
			site := fuzzSite(b)
			counts[site]++
			hit := inWindow[Instance{Site: site, Occurrence: counts[site]}]
			err := r.Reach(site, IO)
			if err != nil {
				fired = append(fired, Instance{Site: site, Occurrence: counts[site]})
				if !hit {
					t.Fatalf("injected at %s#%d which is not in the window", site, counts[site])
				}
				if expectFired {
					t.Fatal("second injection after the budget was spent")
				}
			} else if hit && !expectFired {
				t.Fatalf("first window hit %s#%d did not inject", site, counts[site])
			}
			expectFired = expectFired || hit
		}
		if len(fired) > 1 {
			t.Fatalf("window fired %d times, budget is 1", len(fired))
		}
		if len(r.InjectedAll()) != len(fired) {
			t.Fatalf("runtime recorded %d injections, saw %d faults", len(r.InjectedAll()), len(fired))
		}
	})
}

// fuzzEnvSite maps a byte onto a small env pseudo-site alphabet covering
// every env class, always in PseudoSiteID's canonical form.
func fuzzEnvSite(b byte) string {
	node := func(x byte) string { return fmt.Sprintf("n%d", x%3) }
	switch b % 4 {
	case 0:
		return PseudoSiteID(EnvCrash, node(b>>2), "")
	case 1:
		return PseudoSiteID(EnvPartition, node(b>>2), node(b>>4))
	case 2:
		return PseudoSiteID(EnvDrop, node(b>>2), node(b>>4))
	default:
		return PseudoSiteID(EnvDelay, node(b>>2), node(b>>4))
	}
}

func FuzzEnvPlan(f *testing.F) {
	f.Add([]byte{1, 9, 17, 0}, []byte{1, 2, 3, 1, 1})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{4, 8, 16, 32, 64}, []byte{4, 4, 8, 8, 16, 16})
	f.Fuzz(func(t *testing.T, candBytes, reaches []byte) {
		if len(candBytes) > 64 || len(reaches) > 512 {
			t.Skip("keep the search space small")
		}
		// Candidates mix env pseudo-sites and dotted error-return sites in
		// one window, like a combined-class search round.
		cands := make([]Instance, 0, len(candBytes))
		inWindow := map[Instance]bool{}
		carriesEnv := false
		for i, b := range candBytes {
			site := fuzzSite(b)
			if i%2 == 0 {
				site = fuzzEnvSite(b)
				carriesEnv = true
			}
			inst := Instance{Site: site, Occurrence: fuzzOcc(b >> 3)}
			cands = append(cands, inst)
			inWindow[inst] = true
		}
		plan := Window(cands)
		if got := plan.Features()&EnvFaults != 0; got != carriesEnv {
			t.Fatalf("plan needs EnvFaults=%v, candidates carry env: %v", got, carriesEnv)
		}

		// The differential across both site shapes.
		var stream []reach
		for _, b := range reaches {
			env, occ := fuzzEnvSite(b), fuzzOcc(b>>3)
			stream = append(stream, fuzzReach(b), reachAt(env, occ, 0))
		}
		diffOracle(t, plan, membersOf(cands), stream)

		// Through the runtime: interleave error-return reaches with env
		// reaches. A plan carrying env instances self-activates EnvFaults;
		// nothing fires twice for one (site, occ) and the budget holds.
		r := NewRuntime(plan)
		counts := map[string]int{}
		seen := map[Instance]bool{}
		fired := 0
		for _, b := range reaches {
			site := fuzzSite(b)
			counts[site]++
			if err := r.Reach(site, IO); err != nil {
				inst := Instance{Site: site, Occurrence: counts[site]}
				if seen[inst] {
					t.Fatalf("site plan fired twice for %s#%d", inst.Site, inst.Occurrence)
				}
				seen[inst] = true
				fired++
			}
			env := fuzzEnvSite(b)
			envFault, ok := r.ReachPseudoAt(r.Pseudo(env), 0)
			if ok {
				if !carriesEnv {
					t.Fatalf("env injection %s from a plan with no env candidates", env)
				}
				counts[env]++
				inst := Instance{Site: env, Occurrence: counts[env]}
				if !inWindow[inst] {
					t.Fatalf("env injection %s#%d not in the window", env, counts[env])
				}
				if seen[inst] {
					t.Fatalf("env plan fired twice for %s#%d", inst.Site, inst.Occurrence)
				}
				seen[inst] = true
				fired++
				if envFault.Site() != env || envFault.Occurrence != counts[env] {
					t.Fatalf("env fault %+v does not round-trip site %s#%d", envFault, env, counts[env])
				}
				if want := rowOf(envFault.Class).duration; envFault.Duration != want {
					t.Fatalf("env fault duration %v, want class default %v", envFault.Duration, want)
				}
			} else if carriesEnv {
				counts[env]++ // ReachPseudoAt counted it; mirror for the oracle below
				if inWindow[Instance{Site: env, Occurrence: counts[env]}] && fired == 0 {
					t.Fatalf("first window hit %s#%d did not inject", env, counts[env])
				}
			}
		}
		if fired > 1 {
			t.Fatalf("window fired %d times, budget is 1", fired)
		}
		if len(r.InjectedAll()) != fired {
			t.Fatalf("runtime recorded %d injections, saw %d", len(r.InjectedAll()), fired)
		}
	})
}

// FuzzMultiPlan is the multi-member Exact — a reproduction script of
// several faults: spec bytes become single members, pairs (two members
// each) or a repeat of the previous member.
func FuzzMultiPlan(f *testing.F) {
	f.Add([]byte{1, 9, 100}, []byte{1, 2, 3, 1, 4, 5, 1})
	f.Add([]byte{0}, []byte{0, 0, 0, 0})
	f.Add([]byte{3, 3, 3, 80, 81, 82}, []byte{3, 3, 3, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, spec, reaches []byte) {
		if len(spec) > 32 || len(reaches) > 512 {
			t.Skip("keep the search space small")
		}
		var insts, members []Instance
		for _, b := range spec {
			m := Instance{Site: fuzzSite(b), Occurrence: fuzzOcc(b >> 3)}
			switch {
			case b%3 == 1:
				other := Instance{Site: fuzzSite(b >> 2), Occurrence: fuzzOcc(b >> 5)}
				pair := PairInstance(m, other)
				insts = append(insts, pair)
				members = append(members, membersOf([]Instance{pair})[0]...)
			case b%3 == 2 && len(members) > 0:
				insts = append(insts, members[len(members)-1])
				members = append(members, members[len(members)-1])
			default:
				insts = append(insts, m)
				members = append(members, m)
			}
		}
		plan := Exact(insts...)
		if got := plan.Budget(); got != len(members) {
			t.Fatalf("Exact budget=%d, want its %d members", got, len(members))
		}
		diffOracle(t, plan, [][]Instance{members}, fuzzReaches(reaches))

		r := NewRuntime(plan)
		counts := map[string]int{}
		seen := map[Instance]bool{}
		for _, b := range reaches {
			site := fuzzSite(b)
			counts[site]++
			if err := r.Reach(site, IO); err != nil {
				inst := Instance{Site: site, Occurrence: counts[site]}
				if seen[inst] {
					t.Fatalf("plan fired twice for %s#%d", inst.Site, inst.Occurrence)
				}
				seen[inst] = true
			}
		}
		if n := len(r.InjectedAll()); n > len(members) {
			t.Fatalf("injected %d faults, budget %d", n, len(members))
		}
	})
}

// FuzzPathPlan is the mixed window: single candidates alternating
// occurrence- and path-addressed forms, and between them pairs built from
// adjacent bytes — members shared with the singles around them, self-pairs
// included. Armed from wire strings (the plan folds each Path itself) and
// armed again from key-carrying instances (as the explorer arms it), it
// must match the string-equality oracle in both dispatch modes, and a
// path-enabled runtime must respect its budget and render parseable
// root-context paths for every injection.
func FuzzPathPlan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 1, 2, 3, 5, 8})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{7, 7, 7, 7, 7, 7}, []byte{7, 7, 7, 7, 7, 7, 7})
	// One reach that is an occurrence-addressed single by (site, occ) and,
	// by path, a member of the pair ranked below it.
	f.Add([]byte{1, 2, 3, 4, 9, 10}, []byte{10})
	f.Fuzz(func(t *testing.T, candBytes, reaches []byte) {
		if len(candBytes) > 64 || len(reaches) > 512 {
			t.Skip("keep the search space small")
		}
		// Every fourth single gets a non-root context edge, which a run
		// whose reaches all happen at root context can never match. A
		// pair ranks before its two singles or after them, alternately,
		// and every other pair is path-addressed.
		single := func(i int) Instance {
			b := candBytes[i]
			inst := Instance{Site: fuzzSite(b), Occurrence: fuzzOcc(b >> 3)}
			if i%2 == 0 {
				addr := PathAddr{Site: inst.Site, N: inst.Occurrence}
				if i%4 == 0 {
					addr.Edges = []PathEdge{{Label: fuzzSite(b >> 1), Seq: fuzzOcc(b >> 5)}}
				}
				inst = Instance{Site: inst.Site, Path: addr.String()}
			}
			return inst
		}
		member := func(i int, byPath bool) Instance {
			b := candBytes[i]
			m := Instance{Site: fuzzSite(b), Occurrence: fuzzOcc(b >> 3)}
			if byPath {
				m = Instance{Site: m.Site, Path: PathAddr{Site: m.Site, N: m.Occurrence}.String()}
			}
			return m
		}
		var cands []Instance
		wantBudget := min(len(candBytes), 1)
		for i := 0; i < len(candBytes); i += 2 {
			if i+1 == len(candBytes) {
				cands = append(cands, single(i))
				break
			}
			pair := PairInstance(member(i, i%4 == 0), member(i+1, i%4 == 0))
			if i%8 < 4 {
				cands = append(cands, pair, single(i), single(i+1))
			} else {
				cands = append(cands, single(i), single(i+1), pair)
			}
			wantBudget = 2
		}
		plan := Window(cands)
		if got := plan.Features()&PathAddressing != 0; got != (len(candBytes) > 0) {
			t.Fatalf("plan needs PathAddressing=%v over %d candidate bytes", got, len(candBytes))
		}
		if got := plan.Budget(); got != wantBudget {
			t.Fatalf("window budget %d, want %d", got, wantBudget)
		}
		diffOracle(t, plan, membersOf(cands), fuzzReaches(reaches))
		keyed := make([]Instance, len(cands))
		for i, c := range cands {
			keyed[i] = c
			if h, ok := PathHash(c.Path); ok { // not a pair's member references
				keyed[i] = c.Keyed(h)
			}
		}
		diffOracle(t, Window(keyed), membersOf(cands), fuzzReaches(reaches))

		// Drive the window through a path-enabled runtime with
		// root-context paths (a nil tree).
		r := NewRuntime(plan)
		r.Enable(PathAddressing)
		counts := map[string]int{}
		seen := map[string]bool{}
		fired := 0
		for _, b := range reaches {
			site := fuzzSite(b)
			counts[site]++
			if err := r.Reach(site, IO); err != nil {
				key := fmt.Sprintf("%s#%d", site, counts[site])
				if seen[key] {
					t.Fatalf("fired twice at %s", key)
				}
				seen[key] = true
				fired++
			}
		}
		if fired > wantBudget {
			t.Fatalf("fired %d times, budget %d", fired, wantBudget)
		}
		if len(r.InjectedAll()) != fired {
			t.Fatalf("runtime recorded %d injections, saw %d", len(r.InjectedAll()), fired)
		}
		// Every injection's path parses back to a root-context address of
		// its own site and per-context occurrence.
		for _, ev := range r.InjectedAll() {
			path := r.PathOf(ev.Site, ev.Addr)
			addr, ok := ParsePathAddr(path)
			if !ok || addr.Site != ev.Site || len(addr.Edges) != 0 {
				t.Fatalf("injected path %q does not parse as root context of %s", path, ev.Site)
			}
		}
	})
}
