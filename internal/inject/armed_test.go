package inject

import "testing"

// TestPlanProbedOnlyAtArmedSites: Reset arms the sites of the plan's
// members and disarms the last plan's; a reach calls Decide only at an
// armed site, yet every reach before the budget is spent still counts as
// a decision. The runtime is reused throughout, as a search reuses one,
// so the pseudo-site member, the path member and the pair's members are
// at sites no earlier run of it reached — and still fire.
func TestPlanProbedOnlyAtArmedSites(t *testing.T) {
	crash := PseudoSiteID(EnvCrash, "n1", "")
	r := NewRuntime(nil)
	r.Paths = fuzzTree
	for i := 0; i < 3; i++ {
		_ = r.Reach("a.x", IO)
	}

	type reachOf struct {
		site string
		want bool // injects
	}
	cases := []struct {
		name    string
		plan    *Plan
		armed   []string
		reaches []reachOf
	}{
		{
			name:    "pseudo-site member",
			plan:    Exact(Instance{Site: crash, Occurrence: 2}),
			armed:   []string{crash},
			reaches: []reachOf{{"a.x", false}, {crash, false}, {"a.x", false}, {crash, true}},
		},
		{
			name:    "path member",
			plan:    Window([]Instance{{Site: "b.y", Path: "b.y#2"}}),
			armed:   []string{"b.y"},
			reaches: []reachOf{{"a.x", false}, {"b.y", false}, {"a.x", false}, {"b.y", true}},
		},
		{
			// A path off the wire names the site it ends in, whatever Site says.
			name:    "path member with another site",
			plan:    Exact(Instance{Site: "a.x", Path: "c.z#1"}),
			armed:   []string{"c.z"},
			reaches: []reachOf{{"a.x", false}, {"c.z", true}},
		},
		{
			name:    "pair members",
			plan:    Window([]Instance{PairInstance(Instance{Site: "d.w", Occurrence: 1}, Instance{Site: crash, Occurrence: 1})}),
			armed:   []string{"d.w", crash},
			reaches: []reachOf{{"a.x", false}, {crash, true}, {"b.y", false}, {"d.w", true}},
		},
	}
	for _, c := range cases {
		r.Reset(c.plan)
		for site, rec := range r.sites {
			want := false
			for _, a := range c.armed {
				want = want || a == site
			}
			if rec.armed != want {
				t.Errorf("%s: site %s armed = %v, want %v", c.name, site, rec.armed, want)
			}
		}
		injected := 0
		for i, rc := range c.reaches {
			var got bool
			if IsEnvSite(rc.site) {
				_, got = r.ReachPseudo(rc.site, 0)
			} else {
				got = r.Reach(rc.site, IO) != nil
			}
			if got != rc.want {
				t.Errorf("%s: reach %d at %s injected = %v, want %v", c.name, i, rc.site, got, rc.want)
			}
			if got {
				injected++
			}
		}
		if injected != c.plan.Budget() {
			t.Fatalf("%s: %d injections, budget %d", c.name, injected, c.plan.Budget())
		}
		// Every reach until the budget was spent — the last one — was a
		// decision; a reach after it is not.
		_ = r.Reach("a.x", IO)
		if n, _ := r.Decisions(); n != len(c.reaches) {
			t.Errorf("%s: %d decisions, want one per reach before the budget was spent (%d)", c.name, n, len(c.reaches))
		}
	}
}
