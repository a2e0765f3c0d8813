package server

import (
	"reflect"
	"strings"
	"testing"

	"anduril/internal/core"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	sp := Spec{Failure: "f4"}.Normalize()
	want := Spec{
		Failure: "f4", Strategy: string(core.FullFeedback), Seed: 1,
		MaxRounds: core.DefaultMaxRounds, Window: core.DefaultWindow, Adjust: core.DefaultAdjust, RunsPerRound: 1,
		Addressing: string(core.AddrOccurrence),
	}
	if !reflect.DeepEqual(sp, want) {
		t.Fatalf("Normalize() = %+v, want %+v", sp, want)
	}
}

// Two specs that ask for the same search must share a key — that is the
// whole dedupe contract — and any field that changes the search must
// change the key.
func TestSpecKey(t *testing.T) {
	base := Spec{Failure: "f4"}
	if got, want := base.Key(), (Spec{
		Failure: "f4", Strategy: "full-feedback", Seed: 1,
		MaxRounds: 500, Window: 10, Adjust: 1, RunsPerRound: 1,
		Addressing: "occurrence",
	}).Key(); got != want {
		t.Fatalf("implicit and explicit defaults hash differently:\n%s\n%s", got, want)
	}
	if got, want := (Spec{Failure: "f23", FaultClasses: []string{"site", "env", "site"}}).Key(),
		(Spec{Failure: "f23", FaultClasses: []string{"env", "site"}}).Key(); got != want {
		t.Fatal("fault-class order/duplicates changed the key")
	}

	distinct := []Spec{
		base,
		{Failure: "f5"},
		{Failure: "f4", Seed: 2},
		{Failure: "f4", Strategy: "random"},
		{Failure: "f4", MaxRounds: 100},
		{Failure: "f4", Window: 4},
		{Failure: "f4", Addressing: "path"},
		{Failure: "f4", FaultClasses: []string{"site", "env"}},
	}
	seen := map[string]int{}
	for i, sp := range distinct {
		k := sp.Key()
		if len(k) != 64 {
			t.Fatalf("key %q is not a hex sha256", k)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("specs %d and %d collide: %+v vs %+v", prev, i, distinct[prev], sp)
		}
		seen[k] = i
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // "" = valid
	}{
		{"minimal", Spec{Failure: "f4"}, ""},
		{"full", Spec{Failure: "f23", Strategy: "random", Seed: 9, FaultClasses: []string{"env", "site"}, Addressing: "path"}, ""},
		{"design-choice strategy", Spec{Failure: "f9", Strategy: "fixed-window"}, ""},
		{"no failure", Spec{}, "failure id required"},
		{"unknown failure", Spec{Failure: "f999"}, "unknown failure"},
		{"unknown strategy", Spec{Failure: "f4", Strategy: "bogus"}, "unknown strategy"},
		{"bad rounds", Spec{Failure: "f4", MaxRounds: -1}, "max_rounds"},
		{"bad window", Spec{Failure: "f4", Window: -2}, "window"},
		{"bad adjust", Spec{Failure: "f4", Adjust: -1}, "adjust"},
		{"bad runs", Spec{Failure: "f4", RunsPerRound: -1}, "runs_per_round"},
		{"bad class", Spec{Failure: "f4", FaultClasses: []string{"cosmic"}}, "fault class"},
		{"bad addressing", Spec{Failure: "f4", Addressing: "telepathy"}, "addressing"},
		{"rounds at the cap", Spec{Failure: "f4", MaxRounds: 2000}, ""},
		{"rounds over the cap", Spec{Failure: "f4", MaxRounds: 2001}, "max_rounds × runs_per_round must be at most 2000 (got 2001 × 1)"},
		{"trials at the cap", Spec{Failure: "f4", MaxRounds: 500, RunsPerRound: 4}, ""},
		{"trials over the cap", Spec{Failure: "f4", MaxRounds: 667, RunsPerRound: 3}, "(got 667 × 3)"},
		{"huge product", Spec{Failure: "f4", MaxRounds: 1 << 40, RunsPerRound: 1 << 40}, "max_rounds × runs_per_round"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Normalize().Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// Negative bounds must not normalize into valid defaults — only the
// zero value means "default".
func TestSpecNormalizeKeepsExplicitValues(t *testing.T) {
	sp := Spec{Failure: "f4", Seed: 7, MaxRounds: 42, Window: 3}.Normalize()
	if sp.Seed != 7 || sp.MaxRounds != 42 || sp.Window != 3 {
		t.Fatalf("Normalize clobbered explicit values: %+v", sp)
	}
}
