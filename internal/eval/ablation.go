package eval

import (
	"fmt"
	"strings"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// ablationSettings are the rows of the design-choice table: full feedback,
// then each strategy that changes one of its §5.1–§5.2.5 choices.
var ablationSettings = []struct {
	name     string
	strategy core.Strategy
}{
	{"baseline (paper's choices)", core.FullFeedback},
	{"sum aggregation (vs min)", core.SumAggregation},
	{"temporal by order (vs log distance)", core.TemporalByOrder},
	{"fixed window (vs doubling)", core.FixedWindow},
	{"global diff (vs per-thread)", core.GlobalDiff},
}

// AblationTable evaluates the design-choice strategies over the whole
// dataset: reproduced count, total rounds, and which failures each setting
// loses.
func AblationTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Ablations: design choices of §5.1-§5.2.5 (full feedback, whole dataset)",
		Header: []string{"Setting", "Reproduced", "Total rounds", "Lost failures"},
	}
	scens := failures.SiteDataset()
	variants := make([]variant, len(ablationSettings))
	for i, setting := range ablationSettings {
		variants[i] = variant{fmt.Sprintf("s%d", i), opt.search(setting.strategy)}
	}
	reps, err := runGrid(opt, "ablation", scens, variants...)
	if err != nil {
		return nil, err
	}
	for si, setting := range ablationSettings {
		reproduced, totalRounds := 0, 0
		var lost []string
		for fi, s := range scens {
			rep := reps[si][fi]
			if rep.Reproduced {
				reproduced++
				totalRounds += rep.Rounds
				continue
			}
			totalRounds += opt.MaxRounds
			lost = append(lost, s.ID)
		}
		lostCell := "-"
		if len(lost) > 0 {
			lostCell = strings.Join(lost, " ")
		}
		t.Rows = append(t.Rows, []string{
			setting.name,
			fmt.Sprintf("%d/22", reproduced),
			fmt.Sprint(totalRounds),
			lostCell,
		})
	}
	return t, nil
}
