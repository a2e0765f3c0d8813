package inject

// Fuzz targets for the plan invariants the explorer relies on:
//
//   - a plan never fires twice for the same (site, occ) in one run;
//   - a run never injects more faults than the plan's budget;
//   - Multi's budget equals the sum of its parts (nil parts contribute 0);
//   - Decide is idempotent per occurrence for the pure plans (Exact,
//     Window): consulting it repeatedly returns the same answer and does
//     not disturb later decisions.
//
// Each FuzzX function doubles as a property test over its seed corpus
// under plain `go test`; CI additionally runs each with -fuzz for a short
// randomized budget.

import (
	"fmt"
	"testing"
)

// fuzzSite maps a byte onto a small site alphabet so reach sequences
// collide with plan candidates often enough to be interesting.
func fuzzSite(b byte) string { return fmt.Sprintf("s%d", b%6) }

// fuzzOcc maps a byte onto a small 1-based occurrence range.
func fuzzOcc(b byte) int { return int(b%8) + 1 }

func FuzzExactPlan(f *testing.F) {
	f.Add(byte(1), byte(2), []byte{1, 1, 1, 7, 1})
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(5), byte(7), []byte{5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, siteSel, occSel byte, reaches []byte) {
		target := Instance{Site: fuzzSite(siteSel), Occurrence: fuzzOcc(occSel)}
		plan := Exact(target)

		// Decide is pure: repeated consultation of any (site, occ) agrees,
		// and matches iff it names the exact instance.
		for _, b := range reaches {
			site, occ := fuzzSite(b), fuzzOcc(b>>3)
			want := site == target.Site && occ == target.Occurrence
			if plan.Decide(site, occ) != want || plan.Decide(site, occ) != want {
				t.Fatalf("Exact.Decide(%s,%d) not idempotent or wrong (want %v)", site, occ, want)
			}
		}

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

		// Decide is pure and matches exactly the candidate set.
		for _, b := range reaches {
			site, occ := fuzzSite(b), fuzzOcc(b>>3)
			want := inWindow[Instance{Site: site, Occurrence: occ}]
			if plan.Decide(site, occ) != want || plan.Decide(site, occ) != want {
				t.Fatalf("Window.Decide(%s,%d) not idempotent or wrong (want %v)", site, occ, want)
			}
		}

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
		if got := needsOf(plan)&EnvFaults != 0; got != carriesEnv {
			t.Fatalf("plan needs EnvFaults=%v, candidates carry env: %v", got, carriesEnv)
		}

		// Decide is pure across both site shapes.
		for _, b := range reaches {
			for _, site := range []string{fuzzSite(b), fuzzEnvSite(b)} {
				occ := fuzzOcc(b >> 3)
				want := inWindow[Instance{Site: site, Occurrence: occ}]
				if plan.Decide(site, occ) != want || plan.Decide(site, occ) != want {
					t.Fatalf("Decide(%s,%d) not idempotent or wrong (want %v)", site, occ, want)
				}
			}
		}

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
			envFault, ok := r.ReachPseudo(env, 0)
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
				counts[env]++ // ReachPseudo counted it; mirror for the oracle below
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

func FuzzMultiPlan(f *testing.F) {
	f.Add([]byte{1, 9, 100}, []byte{1, 2, 3, 1, 4, 5, 1})
	f.Add([]byte{0}, []byte{0, 0, 0, 0})
	f.Add([]byte{3, 3, 3, 80, 81, 82}, []byte{3, 3, 3, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, spec, reaches []byte) {
		if len(spec) > 32 || len(reaches) > 512 {
			t.Skip("keep the search space small")
		}
		// Build a plan tree from spec: bytes become Exact leaves, Window
		// leaves, or nil parts; a long spec nests the second half in an
		// inner Multi to exercise recursive budget summing.
		build := func(bytes []byte) ([]Plan, int) {
			plans := make([]Plan, 0, len(bytes))
			budget := 0
			for _, b := range bytes {
				switch b % 3 {
				case 0:
					plans = append(plans, Exact(Instance{Site: fuzzSite(b), Occurrence: fuzzOcc(b >> 3)}))
					budget++
				case 1:
					plans = append(plans, Window([]Instance{
						{Site: fuzzSite(b), Occurrence: fuzzOcc(b >> 3)},
						{Site: fuzzSite(b >> 2), Occurrence: fuzzOcc(b >> 5)},
					}))
					budget++
				default:
					plans = append(plans, nil)
				}
			}
			return plans, budget
		}
		var plan Plan
		var wantBudget int
		if len(spec) > 4 {
			outer, ob := build(spec[:len(spec)/2])
			inner, ib := build(spec[len(spec)/2:])
			plan = Multi(append(outer, Multi(inner...))...)
			wantBudget = ob + ib
		} else {
			plans, b := build(spec)
			plan = Multi(plans...)
			wantBudget = b
		}

		if got := plan.(Budgeter).Budget(); got != wantBudget {
			t.Fatalf("Multi budget=%d, want sum of parts %d", got, wantBudget)
		}

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
		if n := len(r.InjectedAll()); n > wantBudget {
			t.Fatalf("injected %d faults, budget %d", n, wantBudget)
		}
		// Every recorded injection is a distinct (site, occ).
		unique := map[Instance]bool{}
		for _, ev := range r.InjectedAll() {
			inst := Instance{Site: ev.Site, Occurrence: ev.Occurrence}
			if unique[inst] {
				t.Fatalf("runtime recorded %s#%d twice", ev.Site, ev.Occurrence)
			}
			unique[inst] = true
		}
	})
}

// FuzzPathPlan mirrors FuzzEnvPlan for the path-addressing layer: a
// window mixing path- and occurrence-addressed candidates combined with
// a pair plan must never panic, the pure window's DecidePath must be
// idempotent, and a path-enabled runtime must respect the combined
// budget and record parseable root-context paths for every injection.
func FuzzPathPlan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 1, 2, 3, 5, 8})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{7, 7, 7, 7, 7, 7}, []byte{7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, candBytes, reaches []byte) {
		if len(candBytes) > 64 || len(reaches) > 512 {
			t.Skip("keep the search space small")
		}
		// Window candidates alternate occurrence- and path-addressed
		// forms; every fourth gets a non-root context edge, which a run
		// whose reaches all happen at root context can never match.
		cands := make([]Instance, 0, len(candBytes))
		carries := false
		for i, b := range candBytes {
			inst := Instance{Site: fuzzSite(b), Occurrence: fuzzOcc(b >> 3)}
			if i%2 == 0 {
				addr := PathAddr{Site: inst.Site, N: inst.Occurrence}
				if i%4 == 0 {
					addr.Edges = []PathEdge{{Label: fuzzSite(b >> 1), Seq: fuzzOcc(b >> 5)}}
				}
				inst = Instance{Site: inst.Site, Path: addr.String()}
				carries = true
			}
			cands = append(cands, inst)
		}
		window := Window(cands)
		if got := needsOf(window)&PathAddressing != 0; got != carries {
			t.Fatalf("plan needs PathAddressing=%v, candidates carry paths: %v", got, carries)
		}

		// The pure window's path dispatch is idempotent: repeated
		// consultation with identical arguments agrees.
		pd, ok := window.(PathDecider)
		if !ok {
			t.Fatal("window plan does not implement PathDecider")
		}
		probes := map[string]int{}
		for _, b := range reaches {
			site := fuzzSite(b)
			probes[site]++
			occ := probes[site]
			path := fmt.Sprintf("%s#%d", site, occ)
			first := pd.DecidePath(site, occ, path)
			if pd.DecidePath(site, occ, path) != first {
				t.Fatalf("window DecidePath(%s) not idempotent", path)
			}
		}

		// Pair candidates from adjacent byte pairs (skipping degenerate
		// same-instance pairs).
		var pairs [][2]Instance
		for i := 0; i+1 < len(candBytes); i += 2 {
			a := Instance{Site: fuzzSite(candBytes[i]), Occurrence: fuzzOcc(candBytes[i] >> 3)}
			b := Instance{Site: fuzzSite(candBytes[i+1]), Occurrence: fuzzOcc(candBytes[i+1] >> 3)}
			if a == b {
				continue
			}
			pairs = append(pairs, [2]Instance{a, b})
		}
		plan := Multi(window, PairWindow(pairs))
		wantBudget := 1 + 2 // window + pair
		if got := planBudget(plan); got != wantBudget {
			t.Fatalf("combined budget %d, want %d", got, wantBudget)
		}

		// Drive the combined plan through a path-enabled runtime with
		// root-context paths (nil PathID/PathPrefix hooks).
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
			addr, ok := ParsePathAddr(ev.Path)
			if !ok || addr.Site != ev.Site || len(addr.Edges) != 0 {
				t.Fatalf("injected path %q does not parse as root context of %s", ev.Path, ev.Site)
			}
		}
	})
}
