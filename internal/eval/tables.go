package eval

import (
	"fmt"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
)

// Table1FaultSites reproduces Table 1: per-system code size and fault-site
// counts — total static sites, sites inferred by the causal graph for the
// system's failures (mean), and dynamic occurrences of the inferred sites
// (mean).
func Table1FaultSites(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Table 1: target systems and fault sites",
		Header: []string{"System", "LOC", "Total", "Inferred", "Dynamic"},
		Notes: []string{
			"Total: static fault sites in the system; Inferred: mean causal-graph sites per failure;",
			"Dynamic: mean dynamic occurrences of the inferred sites under the failure's workload.",
		},
	}
	for _, sys := range systems {
		scens := siteBySystem(sys)
		if len(scens) == 0 {
			continue
		}
		an, err := scens[0].Analyze()
		if err != nil {
			return nil, err
		}
		reps, err := runCells(opt, datasetCells("table1", scens,
			core.Options{Strategy: core.FullFeedback, Seed: opt.Seed, MaxRounds: 1}))
		if err != nil {
			return nil, err
		}
		sumInferred, sumDynamic := 0, 0
		for _, rep := range reps {
			sumInferred += rep.CandidateSites
			sumDynamic += rep.CandidateInstances
		}
		t.Rows = append(t.Rows, []string{
			systemLabel[sys],
			fmt.Sprint(an.LOC),
			fmt.Sprint(len(an.Sites)),
			fmt.Sprint(sumInferred / len(scens)),
			fmt.Sprint(sumDynamic / len(scens)),
		})
	}
	return t, nil
}

// Table2Strategies is the strategy column order of Table 2: the rows of
// core's strategy table, which are kept in that order.
func Table2Strategies() []core.Strategy { return core.Strategies() }

// Table2Efficacy reproduces Table 2: rounds and wall time per failure for
// ANDURIL, its ablation variants, and the comparison systems. "-" means the
// strategy did not reproduce within the round cap (the paper's 24-hour
// analog). The failure × strategy grid fans across the worker pool.
func Table2Efficacy(opt Options, strategies []core.Strategy) (*Table, error) {
	opt = opt.withDefaults()
	if strategies == nil {
		strategies = Table2Strategies()
	}
	header := []string{"Failure"}
	for _, s := range strategies {
		header = append(header, string(s)+" rnd", "time")
	}
	t := &Table{
		Title:  "Table 2: efficacy of failure reproduction (rounds / wall time)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("'-' = not reproduced within %d rounds (the paper's 24-hour analog).", opt.MaxRounds),
		},
	}
	scens := failures.SiteDataset()
	cells := make([]cell, 0, len(scens)*len(strategies))
	for _, s := range scens {
		for _, strat := range strategies {
			cells = append(cells, cell{fmt.Sprintf("table2-%s-%s", s.ID, strat), s,
				core.Options{Strategy: strat, Seed: opt.Seed, MaxRounds: opt.MaxRounds}})
		}
	}
	reps, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	for fi, s := range scens {
		row := []string{fmt.Sprintf("%s (%s)", s.Issue, s.ID)}
		for si := range strategies {
			rep := reps[fi*len(strategies)+si]
			if rep.Reproduced {
				row = append(row, fmt.Sprint(rep.Rounds), opt.dur(rep.Elapsed))
			} else {
				row = append(row, "-", "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3Sensitivity reproduces Table 3: rounds for the initial window size
// k in {1,3,10} and the feedback adjustment s in {+1,+2,+10}. The
// parameter × failure grid fans across the worker pool.
func Table3Sensitivity(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	scens := failures.SiteDataset()
	header := []string{"Param"}
	for _, s := range scens {
		header = append(header, s.ID)
	}
	t := &Table{
		Title:  "Table 3: sensitivity of the window size k and adjustment s (rounds)",
		Header: header,
	}
	type param struct {
		label          string
		window, adjust int
	}
	params := []param{
		{"k=1", 1, 1}, {"k=3", 3, 1}, {"k=10", 10, 1},
		{"s=+1", 10, 1}, {"s=+2", 10, 2}, {"s=+10", 10, 10},
	}
	cells := make([]cell, 0, len(params)*len(scens))
	for pi, p := range params {
		for _, s := range scens {
			cells = append(cells, cell{fmt.Sprintf("table3-p%d-%s", pi, s.ID), s, core.Options{
				Strategy: core.FullFeedback, Seed: opt.Seed,
				MaxRounds: opt.MaxRounds, Window: p.window, Adjust: p.adjust,
			}})
		}
	}
	reps, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	for pi, p := range params {
		row := []string{p.label}
		for fi := range scens {
			rep := reps[pi*len(scens)+fi]
			if rep.Reproduced {
				row = append(row, fmt.Sprint(rep.Rounds))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table4Performance reproduces Table 4: per-system medians of injection
// requests per round, decision latency, round initialization time and
// workload time.
func Table4Performance(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Table 4: explorer performance per system (medians)",
		Header: []string{"System", "Inject.Req", "Latency", "Round Init", "Workload"},
	}
	for _, sys := range systems {
		reps, err := runCells(opt, datasetCells("table4", siteBySystem(sys),
			core.Options{Strategy: core.FullFeedback, Seed: opt.Seed, MaxRounds: opt.MaxRounds}))
		if err != nil {
			return nil, err
		}
		var reqs []int
		var lat, init, work []time.Duration
		for _, rep := range reps {
			reqs = append(reqs, rep.MedianInjectReqs())
			lat = append(lat, rep.MeanDecisionLatency())
			init = append(init, rep.MedianInitTime())
			work = append(work, rep.MedianRunTime())
		}
		t.Rows = append(t.Rows, []string{
			systemLabel[sys],
			fmt.Sprint(medianInt(reqs)),
			opt.dur(medianDur(lat)),
			opt.dur(medianDur(init)),
			opt.dur(medianDur(work)),
		})
	}
	return t, nil
}

// Table5Failures reproduces appendix Table 5: the failure descriptions,
// the injected fault kinds, and the stacktrace-injector results.
func Table5Failures(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Table 5: the 22-failure dataset and the stacktrace-injector baseline",
		Header: []string{"Failure", "Injected Fault", "ST rnd", "ST time", "Description"},
	}
	scens := failures.SiteDataset()
	reps, err := runCells(opt, datasetCells("table5", scens,
		core.Options{Strategy: core.StackTrace, Seed: opt.Seed, MaxRounds: opt.MaxRounds}))
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		rep := reps[i]
		rnd, tm := "-", "-"
		if rep.Reproduced {
			rnd, tm = fmt.Sprint(rep.Rounds), opt.dur(rep.Elapsed)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (%s)", s.Issue, s.ID),
			string(s.Kind), rnd, tm, s.Description,
		})
	}
	return t, nil
}

// Table6NewRootCauses reproduces appendix Table 6: failures where the
// explorer's reproduction identifies a fault different from (or deeper
// than) the developers' documented root cause, while still satisfying the
// oracle. A row whose script names a new cause is verified by one replay;
// row order is the dataset order.
func Table6NewRootCauses(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Table 6: new root causes exposed while reproducing",
		Header: []string{"Failure", "Documented root cause", "Discovered root cause", "Verified"},
		Notes:  []string{"Rows appear when the oracle-satisfying fault differs from the ground-truth site."},
	}
	scens := failures.SiteDataset()
	reps, err := runCells(opt, datasetCells("table6", scens,
		core.Options{Strategy: core.FullFeedback, Seed: opt.Seed, MaxRounds: opt.MaxRounds}))
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		rep := reps[i]
		if !rep.Reproduced || rep.Script == nil {
			continue
		}
		if rep.Script.Site == s.RootSite && s.NewRootCause == "" {
			continue
		}
		discovered := rep.Script.Site
		if rep.Script.Site == s.RootSite {
			discovered = s.NewRootCause
		}
		tgt, err := s.BuildTarget()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (%s)", s.Issue, s.ID),
			s.RootSite,
			discovered,
			fmt.Sprint(core.Verify(tgt, *rep.Script, rep.ScriptSeed)),
		})
	}
	return t, nil
}

// Table7StaticAnalysis reproduces appendix Table 7: per-system static
// analysis cost, broken down into exception analysis, slicing and chaining.
func Table7StaticAnalysis(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Table 7: static analysis performance",
		Header: []string{"System", "LOC", "Exception", "Slicing", "Chaining", "Total", "Graph V", "Graph E"},
	}
	for _, sys := range systems {
		scens := siteBySystem(sys)
		if len(scens) == 0 {
			continue
		}
		an, err := scens[0].Analyze()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			systemLabel[sys],
			fmt.Sprint(an.LOC),
			opt.dur(an.Timing.Exception),
			opt.dur(an.Timing.Slicing),
			opt.dur(an.Timing.Chaining),
			opt.dur(an.Timing.Total),
			fmt.Sprint(an.Graph.NumNodes()),
			fmt.Sprint(an.Graph.NumEdges()),
		})
	}
	return t, nil
}

// Table8Runtime reproduces appendix Table 8: per-failure runtime details.
func Table8Runtime(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Table 8: per-failure explorer runtime details",
		Header: []string{"Failure", "Inject.Req", "Latency", "Round Init", "Workload", "FreeRun Lines"},
	}
	scens := failures.SiteDataset()
	reps, err := runCells(opt, datasetCells("table8", scens,
		core.Options{Strategy: core.FullFeedback, Seed: opt.Seed, MaxRounds: opt.MaxRounds}))
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		rep := reps[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (%s)", s.Issue, s.ID),
			fmt.Sprint(rep.MedianInjectReqs()),
			opt.dur(rep.MeanDecisionLatency()),
			opt.dur(rep.MedianInitTime()),
			opt.dur(rep.MedianRunTime()),
			fmt.Sprint(rep.FreeRunLogLines),
		})
	}
	return t, nil
}

// Figure6RankTrajectory reproduces Figure 6: the rank of the root-cause
// fault site across trials. A window of 1 forces one candidate per round
// so the trajectory is visible (with the default window the failure often
// reproduces before the feedback has anything to correct).
func Figure6RankTrajectory(opt Options, failureID string) (*Table, error) {
	opt = opt.withDefaults()
	s, ok := failures.ByID(failureID)
	if !ok {
		return nil, fmt.Errorf("eval: no failure %s", failureID)
	}
	reps, err := runCells(opt, []cell{{"figure6-" + s.ID, s, core.Options{
		Strategy: core.FullFeedback, Seed: opt.Seed,
		MaxRounds: opt.MaxRounds, Window: 1, TrackRank: true,
	}}})
	if err != nil {
		return nil, err
	}
	rep := reps[0]
	t := &Table{
		Title:  fmt.Sprintf("Figure 6: rank of the root-cause fault site across trials (%s)", s.Issue),
		Header: []string{"Trial", "Root-site rank", "Injected", "Reproduced"},
	}
	for _, rd := range rep.RoundLog {
		injected := "-"
		if rd.Injected != nil {
			injected = fmt.Sprintf("%s#%d", rd.Injected.Site, rd.Injected.Occurrence)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rd.N), fmt.Sprint(rd.RootRank), injected, fmt.Sprint(rd.Satisfied),
		})
	}
	if rep.Reproduced {
		t.Notes = append(t.Notes, fmt.Sprintf("reproduced in %d trials via %s#%d",
			rep.Rounds, rep.Script.Site, rep.Script.Occurrence))
	}
	return t, nil
}

// verifyAll is a helper ensuring the workload/oracle invariants hold — the
// free run never satisfies an oracle (used by tests).
func verifyAll(opt Options) error {
	opt = opt.withDefaults()
	for _, s := range failures.SiteDataset() {
		free := cluster.Execute(opt.Seed, nil, false, s.Workload, s.Horizon)
		if s.Oracle.Satisfied(free) {
			return fmt.Errorf("%s: oracle satisfied without fault", s.ID)
		}
	}
	return nil
}
