package eval

import (
	"fmt"
	"strings"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// ablationSetting is one design-choice toggle from §5.1–§5.2.5.
type ablationSetting struct {
	name   string
	mutate func(*core.Options)
}

var ablationSettings = []ablationSetting{
	{"baseline (paper's choices)", func(o *core.Options) {}},
	{"sum aggregation (vs min)", func(o *core.Options) { o.AggregateSum = true }},
	{"temporal by order (vs log distance)", func(o *core.Options) { o.TemporalByOrder = true }},
	{"fixed window (vs doubling)", func(o *core.Options) { o.FixedWindow = true }},
	{"global diff (vs per-thread)", func(o *core.Options) { o.GlobalDiff = true }},
}

// AblationTable evaluates the design-choice toggles over the whole dataset
// with the full-feedback algorithm: reproduced count, total rounds, and
// which failures each setting loses.
func AblationTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Ablations: design choices of §5.1-§5.2.5 (full feedback, whole dataset)",
		Header: []string{"Setting", "Reproduced", "Total rounds", "Lost failures"},
	}
	scens := failures.SiteDataset()
	variants := make([]variant, len(ablationSettings))
	for i, setting := range ablationSettings {
		o := opt.search(core.FullFeedback)
		setting.mutate(&o)
		variants[i] = variant{fmt.Sprintf("s%d", i), o}
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
