package core_test

import (
	"fmt"
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
)

func TestScriptRoundTrip(t *testing.T) {
	tgt := target(t, "f1")
	rep := core.Reproduce(tgt, core.Options{Seed: 1})
	if !rep.Reproduced {
		t.Fatal("f1 not reproduced")
	}
	script, err := core.ScriptOf(rep)
	if err != nil {
		t.Fatal(err)
	}
	data, err := script.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadScript(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Faults) != 1 || loaded.Faults[0] != *rep.Script {
		t.Fatalf("round trip: %+v vs %+v", loaded.Faults, rep.Script)
	}
	if script.Seed != rep.ScriptSeed || loaded.Seed != rep.ScriptSeed {
		t.Fatalf("seed: exported %d, loaded %d, the reproducing round ran under %d", script.Seed, loaded.Seed, rep.ScriptSeed)
	}
	// The loaded plan must replay deterministically under the loaded seed.
	s, _ := failures.ByID("f1")
	res, err := cluster.Run(nil, nil, loaded.Seed, inject.Exact(loaded.Faults...), s.Workload, s.Horizon, 0)
	if err != nil || !s.Oracle.Satisfied(res) {
		t.Fatal("loaded plan does not reproduce")
	}
	// A file written before the seed field existed replays under seed 1.
	legacy, err := core.LoadScript([]byte(`{"target":"f1","faults":[{"Site":"zk.sync.append-txn","Occurrence":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Seed != 1 {
		t.Fatalf("file without a seed field loads with seed %d, want 1", legacy.Seed)
	}
}

func TestScriptOfFailure(t *testing.T) {
	if _, err := core.ScriptOf(&core.Report{}); err == nil {
		t.Fatal("expected error for unreproduced report")
	}
	if _, err := core.ScriptOf(nil); err == nil {
		t.Fatal("expected error for nil report")
	}
	if _, err := core.LoadScript([]byte("not json")); err == nil {
		t.Fatal("expected error for bad json")
	}
	if _, err := core.LoadScript([]byte(`{"target":"x","faults":[]}`)); err == nil {
		t.Fatal("expected error for empty faults")
	}
}

func TestMultiFaultScriptPlan(t *testing.T) {
	s := &core.ScriptFile{
		Target: "toy",
		Faults: []inject.Instance{
			{Site: "a", Occurrence: 1},
			{Site: "b", Occurrence: 2},
		},
	}
	plan := inject.Exact(s.Faults...)
	rt := inject.NewRuntime(plan)
	if rt.Reach("a", inject.IO) == nil {
		t.Fatal("a#1 should inject")
	}
	if rt.Reach("b", inject.IO) != nil {
		t.Fatal("b#1 should not inject")
	}
	if rt.Reach("b", inject.IO) == nil {
		t.Fatal("b#2 should inject (multi budget)")
	}
	if len(rt.InjectedAll()) != 2 {
		t.Fatalf("injections: %d", len(rt.InjectedAll()))
	}
}

// TestLoadScriptValidatesFaults: a script arrives from outside the program,
// so a fault no run can ever reach is rejected at load — replaying it would
// otherwise end as "oracle satisfied: false", indistinguishable from a
// genuine non-reproduction. Well-formed faults of every shape still load.
func TestLoadScriptValidatesFaults(t *testing.T) {
	cases := []struct {
		name, faults, wantErr string
	}{
		{"site", `[{"Site":"zk.sync.append-txn","Occurrence":3}]`, ""},
		{"path-addressed", `[{"Site":"dyn.store.persist","Occurrence":0,"Path":"client.put>dyn.store.persist#1"}]`, ""},
		{"env", `[{"Site":"env/crash/zk1","Occurrence":2}]`, ""},
		{"pair", `[{"Site":"pair/a.x+b.y","Occurrence":4,"Path":"a.x:1+b.y:2"}]`, ""},
		{"two faults, as older binaries wrote them", `[{"Site":"toy.scrub-store","Occurrence":2},{"Site":"toy.ping-peer","Occurrence":2}]`, ""},
		{"occurrence 0 without a path", `[{"Site":"x","Occurrence":0}]`, `fault 1: site "x" needs an occurrence`},
		{"negative occurrence", `[{"Site":"a.b","Occurrence":1},{"Site":"x","Occurrence":-1}]`, `fault 2: site "x"`},
		{"no site", `[{"Occurrence":1}]`, `fault 1: site ""`},
		{"pair without members", `[{"Site":"pair/a.x+b.y","Occurrence":1}]`, "does not name two members"},
		{"pair with a bad member", `[{"Site":"pair/a.x+b.y","Occurrence":1,"Path":"a.x:0+b.y:2"}]`, "does not name two members"},
		{"pair of an unknown env class", `[{"Site":"pair/a.x+env/melt/n1","Occurrence":1,"Path":"a.x:1+env/melt/n1:2"}]`, "not a well-formed pseudo-site"},
		{"unknown env class", `[{"Site":"env/melt/n1","Occurrence":1}]`, "not a well-formed pseudo-site"},
		{"non-canonical path", `[{"Site":"s","Occurrence":0,"Path":"a[1]>s#1"}]`, "not a canonical path address"},
		{"path ending at another site", `[{"Site":"s","Occurrence":0,"Path":"a>t#1"}]`, "not a canonical path address"},
		{"pair with a non-canonical member path", `[{"Site":"pair/s+t","Occurrence":1,"Path":"a>s#01+a>t#1"}]`, "does not name two members"},
		{"malformed partial site", `[{"Site":"partial/disk/short-write/","Occurrence":1}]`, "not a well-formed pseudo-site"},
	}
	for _, c := range cases {
		sf, err := core.LoadScript([]byte(`{"target":"t","faults":` + c.faults + `}`))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr == "" && inject.Exact(sf.Faults...).Budget() == 0:
			t.Errorf("%s: loaded to a plan that can inject nothing", c.name)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want it to name %q", c.name, err, c.wantErr)
		}
	}
}

// scriptStabilityGolden pins, for every dataset cell's script, how many of
// eight other seeds it still reproduces under — the rate `replay -seed N`
// would see.
const scriptStabilityGolden = "testdata/script_seed_stability.golden"

// stabilitySeeds are the first n seeds from 1 up, skipping the script's own.
func stabilitySeeds(own int64, n int) []int64 {
	var out []int64
	for s := int64(1); len(out) < n; s++ {
		if s != own {
			out = append(out, s)
		}
	}
	return out
}

// TestScriptSeedStability: every cell's script, replayed by Verify under
// eight seeds other than the one the search reproduced it under, reproduces
// at the rate on file. The scripts come from the conformance records; no
// search runs again. A script is a (site, occurrence) or a call path, and
// under another seed the same name may be another dynamic instance — f3's
// occurrence-mode script is the known seed-bound one.
func TestScriptSeedStability(t *testing.T) {
	const n = 8
	rows := make([]string, len(cellOrder))
	t.Run("cells", func(t *testing.T) {
		for i, k := range cellOrder {
			t.Run(k.id+"/"+string(k.mode), func(t *testing.T) {
				t.Parallel()
				c := cells[k].observe()
				reproduces(t, c)
				hits, marks := 0, make([]byte, n)
				for j, seed := range stabilitySeeds(c.rep.ScriptSeed, n) {
					marks[j] = '-'
					if core.Verify(c.tgt, *c.rep.Script, seed) {
						hits, marks[j] = hits+1, '+'
					}
				}
				rows[i] = fmt.Sprintf("%s %s script-seed=%d %d/%d %s\n", k.id, k.mode, c.rep.ScriptSeed, hits, n, marks)
			})
		}
	})
	if t.Failed() {
		return
	}
	got := "# id mode script-seed reproduced/replays per-seed (seeds 1.." + fmt.Sprint(n+1) + " but the script's own)\n" + strings.Join(rows, "")
	compareText(t, scriptStabilityGolden, got)
}
