// Command tables regenerates the tables and figures of the paper's
// evaluation section against this reproduction.
//
// Usage:
//
//	tables                 # everything, parallel across all CPUs
//	tables -table 2        # one table (1-8, 9 = ablations)
//	tables -figure 6       # Figure 6
//	tables -max-rounds 500 -seed 1
//	tables -j 1            # serial (identical output, one worker)
//	tables -no-time        # mask wall-time cells for byte-stable output
//	tables -trace-dir d    # one JSONL explorer trace per experiment cell
//
// Every experiment cell is a hermetic, seeded run, so -j N and -j 1
// render identical deterministic content for the same seed; only the
// measured wall-time cells vary run to run (mask them with -no-time to
// diff outputs byte for byte).
package main

import (
	"flag"
	"fmt"
	"os"

	"anduril/internal/eval"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate one table (1-8, 9 = ablations); 0 = all")
		figure    = flag.Int("figure", 0, "regenerate one figure (6); 0 = all")
		seed      = flag.Int64("seed", 1, "master seed")
		maxRounds = flag.Int("max-rounds", 500, "round cap (the paper's 24-hour analog)")
		fig6      = flag.String("fig6-failure", "f4", "failure for the Figure 6 trajectory")
		workers   = flag.Int("j", 0, "experiment-cell workers: 0 = one per CPU, 1 = serial")
		noTime    = flag.Bool("no-time", false, "render wall-time cells as '*' (byte-stable output)")
		traceDir  = flag.String("trace-dir", "", "write one JSONL explorer trace per experiment cell into this directory")
	)
	flag.Parse()

	opt := eval.Options{
		Seed: *seed, MaxRounds: *maxRounds, Workers: *workers,
		NoTiming: *noTime, TraceDir: *traceDir,
	}
	all := *table == 0 && *figure == 0

	type gen struct {
		id  int
		fn  func() (*eval.Table, error)
		fig bool
	}
	gens := []gen{
		{1, func() (*eval.Table, error) { return eval.Table1FaultSites(opt) }, false},
		{2, func() (*eval.Table, error) { return eval.Table2Efficacy(opt, nil) }, false},
		{3, func() (*eval.Table, error) { return eval.Table3Sensitivity(opt) }, false},
		{4, func() (*eval.Table, error) { return eval.Table4Performance(opt) }, false},
		{5, func() (*eval.Table, error) { return eval.Table5Failures(opt) }, false},
		{6, func() (*eval.Table, error) { return eval.Table6NewRootCauses(opt) }, false},
		{7, func() (*eval.Table, error) { return eval.Table7StaticAnalysis(opt) }, false},
		{8, func() (*eval.Table, error) { return eval.Table8Runtime(opt) }, false},
		{9, func() (*eval.Table, error) { return eval.AblationTable(opt) }, false},
		{6, func() (*eval.Table, error) { return eval.Figure6RankTrajectory(opt, *fig6) }, true},
	}
	for _, g := range gens {
		want := all || (!g.fig && *table == g.id) || (g.fig && *figure == g.id)
		if !want {
			continue
		}
		t, err := g.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
	}
}
