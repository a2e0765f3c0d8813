package eval

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/trace"
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
	scens := failures.SiteDataset()
	free := opt.search(core.FullFeedback)
	free.MaxRounds = 1
	reps, err := runGrid(opt, "table1", scens, variant{opts: free})
	if err != nil {
		return nil, err
	}
	for _, sys := range systems {
		an, err := failures.Analyze(sys.name)
		if err != nil {
			return nil, err
		}
		n, sumInferred, sumDynamic := 0, 0, 0
		for i, rep := range reps[0] {
			if scens[i].System == sys.name {
				n++
				sumInferred += rep.CandidateSites
				sumDynamic += rep.CandidateInstances
			}
		}
		t.Rows = append(t.Rows, []string{sys.label, fmt.Sprint(an.LOC), fmt.Sprint(len(an.Sites)),
			fmt.Sprint(sumInferred / n), fmt.Sprint(sumDynamic / n)})
	}
	return t, nil
}

// Table2Efficacy reproduces Table 2: rounds and wall time per failure for
// ANDURIL, its ablation variants, and the comparison systems (nil
// strategies = all of them, in core.Strategies order). "-" means the
// strategy did not reproduce within the round cap (the paper's 24-hour
// analog). Two summary rows count each strategy's reproductions and take
// the median of their rounds.
func Table2Efficacy(opt Options, strategies []core.Strategy) (*Table, error) {
	opt = opt.withDefaults()
	if strategies == nil {
		strategies = core.Strategies()
	}
	header := []string{"Failure"}
	variants := make([]variant, len(strategies))
	for i, s := range strategies {
		header = append(append(header, string(s)+" rnd"), opt.timed("time")...)
		variants[i] = variant{string(s), opt.search(s)}
	}
	t := &Table{
		Title:  "Table 2: efficacy of failure reproduction (rounds / wall time)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("'-' = not reproduced within %d rounds (the paper's 24-hour analog).", opt.MaxRounds),
		},
	}
	scens := failures.SiteDataset()
	reps, err := runGrid(opt, "table2", scens, variants...)
	if err != nil {
		return nil, err
	}
	for fi, s := range scens {
		row := []string{label(s)}
		for si := range strategies {
			rnd, tm := cells(reps[si][fi])
			row = append(append(row, rnd), opt.timed(tm)...)
		}
		t.Rows = append(t.Rows, row)
	}
	reproduced, med := []string{"reproduced"}, []string{"median"}
	for _, col := range reps {
		rounds := reproducedRounds(col)
		reproduced = append(append(reproduced, fmt.Sprint(len(rounds))), opt.timed("")...)
		med = append(append(med, roundStat(rounds, median[int])), opt.timed("")...)
	}
	t.Rows = append(t.Rows, reproduced, med)
	ff, sd := slices.Index(strategies, core.FullFeedback), slices.Index(strategies, core.SiteDistance)
	if ff >= 0 && sd >= 0 {
		first, ties := 0, 0
		for fi := range scens {
			a, _ := cells(reps[ff][fi])
			b, _ := cells(reps[sd][fi])
			if a == "1" {
				first++
			}
			if a == b {
				ties++
			}
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("%s reproduces %d of %d in round 1.", core.FullFeedback, first, len(scens)),
			fmt.Sprintf("%s ties %s on %d of %d.", core.FullFeedback, core.SiteDistance, ties, len(scens)))
	}
	return t, nil
}

// Table3Sensitivity reproduces Table 3: rounds for the initial window size
// k in {1,3,10} and the feedback adjustment s in {+1,+2,+10}.
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
	param := func(label string, window, adjust int) variant {
		o := opt.search(core.FullFeedback)
		o.Window, o.Adjust = window, adjust
		return variant{label, o}
	}
	variants := []variant{
		param("k=1", 1, 1), param("k=3", 3, 1), param("k=10", 10, 1),
		param("s=+1", 10, 1), param("s=+2", 10, 2), param("s=+10", 10, 10),
	}
	reps, err := runGrid(opt, "table3", scens, variants...)
	if err != nil {
		return nil, err
	}
	for pi, v := range variants {
		row := []string{v.name}
		for _, rep := range reps[pi] {
			rnd, _ := cells(rep)
			row = append(row, rnd)
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
		Header: append([]string{"System", "Inject.Req"}, opt.timed("Latency", "Round Init", "Workload")...),
	}
	scens := failures.SiteDataset()
	reps, err := runGrid(opt, "table4", scens, variant{opts: opt.search(core.FullFeedback)})
	if err != nil {
		return nil, err
	}
	for _, sys := range systems {
		var reqs []int
		var lat, init, work []time.Duration
		for i, rep := range reps[0] {
			if scens[i].System == sys.name {
				reqs = append(reqs, rep.MedianInjectReqs())
				lat = append(lat, rep.MeanDecisionLatency())
				init = append(init, rep.MedianInitTime())
				work = append(work, rep.MedianRunTime())
			}
		}
		t.Rows = append(t.Rows, append([]string{sys.label, fmt.Sprint(median(reqs))},
			opt.timed(fmtDur(median(lat)), fmtDur(median(init)), fmtDur(median(work)))...))
	}
	return t, nil
}

// Table5Failures reproduces appendix Table 5: the failure descriptions,
// the injected fault kinds, and the stacktrace-injector results.
func Table5Failures(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Table 5: the 22-failure dataset and the stacktrace-injector baseline",
		Header: slices.Concat([]string{"Failure", "Injected Fault", "ST rnd"}, opt.timed("ST time"), []string{"Description"}),
	}
	scens := failures.SiteDataset()
	reps, err := runGrid(opt, "table5", scens, variant{opts: opt.search(core.StackTrace)})
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		kind, err := rootKind(s)
		if err != nil {
			return nil, err
		}
		rnd, tm := cells(reps[0][i])
		t.Rows = append(t.Rows, slices.Concat([]string{label(s), string(kind), rnd}, opt.timed(tm), []string{s.Description}))
	}
	return t, nil
}

// rootKind is the fault kind the system's analysis records at the
// scenario's root site: the exception type the Instrumenter reads there.
func rootKind(s *failures.Scenario) (inject.Kind, error) {
	an, err := failures.Analyze(s.System)
	if err != nil {
		return "", err
	}
	for _, site := range an.Sites {
		if site.ID == s.Root.Site {
			return site.Kind, nil
		}
	}
	return "", fmt.Errorf("eval: %s: root site %s is not a fault site of %s", s.ID, s.Root.Site, s.System)
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
	reps, err := runGrid(opt, "table6", scens, variant{opts: opt.search(core.FullFeedback)})
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		rep := reps[0][i]
		if !rep.Reproduced || rep.Script == nil || (rep.Script.Site == s.Root.Site && s.NewRootCause == "") {
			continue
		}
		discovered := rep.Script.Site
		if rep.Script.Site == s.Root.Site {
			discovered = s.NewRootCause
		}
		tgt, err := s.BuildTarget()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{label(s), s.Root.Site, discovered, fmt.Sprint(core.Verify(tgt, *rep.Script, rep.ScriptSeed))})
	}
	return t, nil
}

// Table7StaticAnalysis reproduces appendix Table 7: per-system static
// analysis cost, broken down into exception analysis, slicing and chaining.
func Table7StaticAnalysis(opt Options) (*Table, error) {
	t := &Table{
		Title: "Table 7: static analysis performance",
		Header: slices.Concat([]string{"System", "LOC"}, opt.timed("Exception", "Slicing", "Chaining", "Total"),
			[]string{"Graph V", "Graph E"}),
	}
	for _, sys := range systems {
		an, err := failures.Analyze(sys.name)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, slices.Concat(
			[]string{sys.label, fmt.Sprint(an.LOC)},
			opt.timed(fmtDur(an.Timing.Exception), fmtDur(an.Timing.Slicing), fmtDur(an.Timing.Chaining), fmtDur(an.Timing.Total)),
			[]string{fmt.Sprint(an.Graph.NumNodes()), fmt.Sprint(an.Graph.NumEdges())},
		))
	}
	return t, nil
}

// Table8Runtime reproduces appendix Table 8: per-failure runtime details.
func Table8Runtime(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Table 8: per-failure explorer runtime details",
		Header: slices.Concat([]string{"Failure", "Inject.Req"}, opt.timed("Latency", "Round Init", "Workload"),
			[]string{"FreeRun Lines"}),
	}
	scens := failures.SiteDataset()
	reps, err := runGrid(opt, "table8", scens, variant{opts: opt.search(core.FullFeedback)})
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		rep := reps[0][i]
		t.Rows = append(t.Rows, slices.Concat(
			[]string{label(s), fmt.Sprint(rep.MedianInjectReqs())},
			opt.timed(fmtDur(rep.MeanDecisionLatency()), fmtDur(rep.MedianInitTime()), fmtDur(rep.MedianRunTime())),
			[]string{fmt.Sprint(rep.FreeRunLogLines)},
		))
	}
	return t, nil
}

// Table10BeyondPaper records the failures beyond the paper's 22 (f23–f34):
// full feedback under each failure's declared fault classes, and the
// script it finds. A pair script prints as "a#n + b#m".
func Table10BeyondPaper(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title:  "Table 10: failures beyond the paper's dataset (full feedback under each failure's fault classes)",
		Header: []string{"Failure", "Classes", "Script", "Rounds"},
	}
	scens := failures.All()[len(failures.SiteDataset()):]
	reps, err := runGrid(opt, "table10", scens, variant{opts: opt.search(core.FullFeedback)})
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		rep, script := reps[0][i], "-"
		if rep.Reproduced {
			script = rep.Script.String()
		}
		rnd, _ := cells(rep)
		t.Rows = append(t.Rows, []string{label(s), strings.Join(s.FaultClasses, ","), script, rnd})
	}
	return t, nil
}

// Table 11 runs every cell under sweepSeeds engine seeds, opt.Seed +
// i·sweepStride: round r runs under seed + r, so consecutive seeds share trials.
const (
	sweepSeeds  = 32
	sweepStride = 1_000_003
)

// sweepModes are Table 11's addressing modes, in row order.
var sweepModes = []core.Addressing{core.AddrOccurrence, core.AddrPath}

// Table11SeedSweep runs full feedback on every failure of the dataset, under
// each failure's fault classes, in both addressing modes and under
// sweepSeeds engine seeds. Its first seed is opt.Seed, so each cell's first
// sample is the search Table 2, Table 10 and the conformance suite run.
func Table11SeedSweep(opt Options) (*Table, error) {
	t, _, err := seedSweep(opt, sweepSeeds)
	return t, err
}

// seedSweep is Table 11 over n seeds. A row is one (failure, mode): how
// many of the n searches reproduced, order statistics of their rounds, and
// how the others ended. It also returns the searches' reports, indexed
// [mode index·n + seed index][failure].
func seedSweep(opt Options, n int) (*Table, [][]*core.Report, error) {
	opt = opt.withDefaults()
	var variants []variant
	for _, mode := range sweepModes {
		for i := range n {
			o := opt.search(core.FullFeedback)
			o.Seed += int64(i) * sweepStride
			o.Addressing = mode
			variants = append(variants, variant{fmt.Sprintf("%s-%d", mode, o.Seed), o})
		}
	}
	scens := failures.All()
	start := time.Now()
	reps, err := runGrid(opt, "table11", scens, variants...)
	if err != nil {
		return nil, nil, err
	}
	misses := []string{trace.ReasonExhausted, trace.ReasonWindowUnreached, trace.ReasonRoundCap, trace.ReasonError}
	t := &Table{
		Title:  fmt.Sprintf("Table 11: full feedback over %d engine seeds per failure and addressing mode", n),
		Header: append([]string{"Failure", "Mode", "Reproduced", "Min", "Median", "p90", "Max"}, misses...),
		Notes: []string{
			fmt.Sprintf("Engine seeds %d + i·%d, i = 0..%d; Min to Max are over the reproduced searches (p90 nearest-rank), '-' when none.",
				opt.Seed, sweepStride, n-1),
		},
	}
	total := 0
	for fi, s := range scens {
		for mi, mode := range sweepModes {
			col := make([]*core.Report, n)
			ends := map[string]int{}
			for i := range col {
				col[i] = reps[mi*n+i][fi]
				ends[col[i].Reason]++
				total += col[i].Rounds
			}
			rounds := reproducedRounds(col)
			row := []string{label(s), string(mode), fmt.Sprintf("%d/%d", len(rounds), n),
				roundStat(rounds, slices.Min[[]int]), roundStat(rounds, median[int]), roundStat(rounds, p90),
				roundStat(rounds, slices.Max[[]int])}
			for _, reason := range misses {
				row = append(row, fmt.Sprint(ends[reason]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	note := fmt.Sprintf("%d searches, %d rounds", len(variants)*len(scens), total)
	if wall := time.Since(start); !opt.NoTiming {
		note += fmt.Sprintf(", %s wall time, %.0f rounds/s", fmtDur(wall), float64(total)/wall.Seconds())
	}
	t.Notes = append(t.Notes, note+".")
	return t, reps, nil
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
	o := opt.search(core.FullFeedback)
	o.Window = 1
	reps, err := runGrid(opt, "figure6", []*failures.Scenario{s}, variant{opts: o})
	if err != nil {
		return nil, err
	}
	rep := reps[0][0]
	t := &Table{
		Title:  fmt.Sprintf("Figure 6: rank of the root-cause fault site across trials (%s)", s.Issue),
		Header: []string{"Trial", "Root-site rank", "Injected", "Reproduced"},
	}
	for _, rd := range rep.RoundLog {
		injected := "-"
		if rd.Injected != nil {
			injected = rd.Injected.String()
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(rd.N), fmt.Sprint(rd.RootRank), injected, fmt.Sprint(rd.Satisfied)})
	}
	if rep.Reproduced {
		t.Notes = append(t.Notes, fmt.Sprintf("reproduced in %d trials via %s", rep.Rounds, rep.Script))
	}
	return t, nil
}
