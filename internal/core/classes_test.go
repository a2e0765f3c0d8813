package core_test

// Tests for the fault-class table as a whole: widening the class set never
// perturbs a narrower search, and a class list that names no known class
// is an error rather than an empty search.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

// siteSearchUnchangedBy is the compatibility acceptance criterion of every
// class beyond site: turning the given classes on for the paper's 22
// site-rooted failures must not perturb the site search — same rounds,
// same injections, same windows, same script. The site class runs both its
// passes before any later class opens, so this holds also for a search
// that reaches its second pass, as each of the extra searches does.
func siteSearchUnchangedBy(t *testing.T, classes []string, extra ...seeded) {
	var searches []seeded
	for _, s := range failures.SiteDataset() {
		searches = append(searches, seeded{s.ID, 1})
	}
	for _, c := range append(searches, extra...) {
		name := c.id
		if c.seed != 1 {
			name += fmt.Sprintf("_seed%d", c.seed)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tgt := target(t, c.id)
			base := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: c.seed, MaxRounds: 500})
			wide := core.Reproduce(tgt, core.Options{
				Strategy: core.FullFeedback, Seed: c.seed, MaxRounds: 500, FaultClasses: classes,
			})
			if !base.Reproduced {
				t.Fatalf("%s baseline not reproduced", c.id)
			}
			if wide.Script != nil && (inject.IsEnvSite(wide.Script.Site) || inject.IsPartialSite(wide.Script.Site)) {
				t.Fatalf("%s rooted outside the site class under %v: %v", c.id, classes, wide.Script)
			}
			if a, b := roundSummary(base), roundSummary(wide); a != b {
				t.Fatalf("%s search trajectory changed under %v:\n--- site-only\n%s--- widened\n%s", c.id, classes, a, b)
			}
		})
	}
}

// seeded is a site-rooted failure searched under an engine seed.
type seeded struct {
	id   string
	seed int64
}

// One row per class set. They are separate test functions, not subtests of
// one, so the per-failure subtest names CI history and the test floor key
// on stay what they were.
func TestSiteSearchUnchangedByEnvEnumeration(t *testing.T) {
	siteSearchUnchangedBy(t, []string{core.ClassSite, core.ClassEnv})
}

func TestSiteSearchUnchangedByPartialEnumeration(t *testing.T) {
	siteSearchUnchangedBy(t, []string{core.ClassSite, core.ClassPartial})
}

// The all-class row adds three searches of f3 that reproduce only in the
// site class's second pass (in 32, 32 and 30 rounds), so they hold that the
// later classes wait for that pass.
func TestSiteSearchUnchangedByAllClasses(t *testing.T) {
	siteSearchUnchangedBy(t, []string{core.ClassSite, core.ClassEnv, core.ClassPartial, core.ClassPair},
		seeded{"f3", 7000022}, seeded{"f3", 8000025}, seeded{"f3", 18000055})
}

// searchFailsToStart asserts that bad fails through the library entry
// point before the free run: Report.Error names the problem, no round and
// no free run happened, and the trace is a lone outcome with reason error.
func searchFailsToStart(t *testing.T, tgt *core.Target, bad core.Options, want string) {
	t.Helper()
	var mem trace.Memory
	bad.Trace = &mem
	rep := core.Reproduce(tgt, bad)
	if !strings.Contains(rep.Error, want) || rep.Rounds != 0 || rep.FreeRunLogLines != 0 {
		t.Fatalf("Reproduce: Error = %q after %d rounds and a %d-line free run, want %s and neither",
			rep.Error, rep.Rounds, rep.FreeRunLogLines, want)
	}
	if len(mem.Events) != 1 || mem.Events[0].Type != trace.Outcome || mem.Events[0].Reason != trace.ReasonError {
		t.Fatalf("trace = %v, want a lone %s outcome", lines(mem.Events), trace.ReasonError)
	}
}

// TestUnknownStrategyIsAnError: a misspelled strategy from a library caller
// (the front ends reject it in Options.Validate) fails the search the same
// way a misspelled fault class does, instead of paying a free run to report
// the fault space exhausted after zero rounds.
func TestUnknownStrategyIsAnError(t *testing.T) {
	searchFailsToStart(t, target(t, "f4"), core.Options{Strategy: "bogus", Seed: 1}, `unknown strategy "bogus"`)
}

// TestUnknownFaultClassIsAnError: a misspelled class must fail the search
// loudly — silently searching nothing is indistinguishable from "fault
// space exhausted" — and an empty list means unset, like nil.
func TestUnknownFaultClassIsAnError(t *testing.T) {
	tgt := target(t, "f4")
	bad := core.Options{Strategy: core.FullFeedback, Seed: 1, FaultClasses: []string{"sites"}}
	const want = `unknown fault class "sites"`
	searchFailsToStart(t, tgt, bad, want)

	unset := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1})
	empty := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, FaultClasses: []string{}})
	if !empty.Reproduced || roundSummary(empty) != roundSummary(unset) {
		t.Fatalf("empty class list is not the site-only default:\n--- unset\n%s--- empty\n%s",
			roundSummary(unset), roundSummary(empty))
	}
}

// TestOptionsValidate: the one set of front-end rules — every CLI flag
// check and server.Spec.Validate go through it — names the offending
// option by its snake_case key.
func TestOptionsValidate(t *testing.T) {
	ok := core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500, Window: 10, Adjust: 1}
	with := func(edit func(*core.Options)) core.Options { o := ok; edit(&o); return o }
	cases := []struct {
		name   string
		opts   core.Options
		option string // "" = valid
	}{
		{"defaults", ok, ""},
		{"all classes, path", with(func(o *core.Options) {
			o.FaultClasses, o.Addressing, o.RunsPerRound = []string{"site", "env", "pair", "partial"}, core.AddrPath, 3
		}), ""},
		{"no strategy", with(func(o *core.Options) { o.Strategy = "" }), "strategy"},
		{"unknown strategy", with(func(o *core.Options) { o.Strategy = "bogus" }), "strategy"},
		{"zero rounds", with(func(o *core.Options) { o.MaxRounds = 0 }), "max_rounds"},
		{"negative window", with(func(o *core.Options) { o.Window = -2 }), "window"},
		{"zero adjust", with(func(o *core.Options) { o.Adjust = 0 }), "adjust"},
		{"zero seed", with(func(o *core.Options) { o.Seed = 0 }), "seed"},
		{"negative runs", with(func(o *core.Options) { o.RunsPerRound = -1 }), "runs_per_round"},
		{"unknown class", with(func(o *core.Options) { o.FaultClasses = []string{"site", "cosmic"} }), "fault_classes"},
		{"unknown addressing", with(func(o *core.Options) { o.Addressing = "telepathy" }), "addressing"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		var oe *core.OptionError
		switch {
		case c.option == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", c.name, err)
		case c.option != "" && (!errors.As(err, &oe) || oe.Option != c.option):
			t.Errorf("%s: Validate() = %v, want an OptionError naming %s", c.name, err, c.option)
		}
	}
}

func TestSplitFaultClasses(t *testing.T) {
	for in, want := range map[string][]string{
		"":              nil,
		" , ":           nil,
		"site":          {"site"},
		"env, site":     {"env", "site"},
		",pair,,bogus ": {"pair", "bogus"},
	} {
		if got := core.SplitFaultClasses(in); !slices.Equal(got, want) {
			t.Errorf("SplitFaultClasses(%q) = %q, want %q", in, got, want)
		}
	}
}

// roundSummary compresses a report to the fields that define the search
// trajectory — what was injected when, with which window, and the verdict.
func roundSummary(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reproduced=%v rounds=%d script=%v seed=%d\n",
		rep.Reproduced, rep.Rounds, rep.Script, rep.ScriptSeed)
	for _, rd := range rep.RoundLog {
		b.WriteString(roundLine(rd))
	}
	return b.String()
}

// roundLine is one round of roundSummary: its injection, verdict and window.
func roundLine(rd core.Round) string {
	return fmt.Sprintf("r%d inj=%v sat=%v w=%d\n", rd.N, rd.Injected, rd.Satisfied, rd.WindowSize)
}
