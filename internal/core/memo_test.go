package core_test

import (
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// TestBestUntriedMemoMatchesScan: every answer bestUntried gives — a memo
// hit or a fresh scan — equals a scan of the site made then, in the search
// of every conformance cell, and the checked search ends where an
// unchecked one does. The rows whose selection reads the memo's other
// inputs — an instance limit, scoring by occurrence — run on the site,
// env and pair failures f4, f23 and f30 too.
func TestBestUntriedMemoMatchesScan(t *testing.T) {
	type run struct {
		id   string
		opts core.Options
	}
	var runs []run
	for _, sc := range failures.All() {
		for _, mode := range addressingModes {
			runs = append(runs, run{sc.ID, cells[cellKey{sc.ID, mode}].opts})
		}
	}
	for _, id := range []string{"f4", "f23", "f30"} {
		for _, s := range []core.Strategy{core.SiteDistanceLimit, core.SiteFeedback, core.TemporalByOrder, core.SumAggregation} {
			runs = append(runs, run{id, core.Options{Seed: 1, MaxRounds: 500, Strategy: s}})
		}
	}
	for _, r := range runs {
		name := r.id + "/" + string(r.opts.Addressing) + string(r.opts.Strategy)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, _ := failures.ByID(r.id)
			tgt, err := sc.BuildTarget()
			if err != nil {
				t.Fatal(err)
			}
			rep, checked, differed := core.ReproduceCheckingPicks(tgt, r.opts)
			if differed != 0 {
				t.Errorf("%d of %d picks differ from a fresh scan", differed, checked)
			}
			if checked == 0 {
				t.Error("the search made no pick")
			}
			if want := core.Reproduce(tgt, r.opts); rep.Rounds != want.Rounds || rep.Reproduced != want.Reproduced {
				t.Errorf("checked search: %d rounds, reproduced %v; unchecked: %d, %v", rep.Rounds, rep.Reproduced, want.Rounds, want.Reproduced)
			}
		})
	}
}
