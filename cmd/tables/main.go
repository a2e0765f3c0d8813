// Command tables regenerates the tables and figures of the paper's
// evaluation section against this reproduction, as GitHub Markdown.
//
// Usage:
//
//	tables                 # everything, parallel across all CPUs
//	tables -table 2        # one table (1-8, 9 = ablations, 10 = f23-f34, 11 = seed sweep)
//	tables -figure 6       # Figure 6
//	tables -max-rounds 500 -seed 1
//	tables -j 1            # serial (identical output, one worker)
//	tables -no-time        # leave wall-time columns out for byte-stable output
//	tables -trace-dir d    # one JSONL explorer trace per experiment cell
//
// Every cell is a hermetic, seeded run, so for a fixed seed the output is
// the same at any -j, wall-time columns aside (-no-time leaves them out).
// EXPERIMENTS.md's tables are this command's -no-time output.
//
// Exit codes: 0 success; 1 a table failed to generate; 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"anduril/internal/core"
	"anduril/internal/eval"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary: parse, validate, print the
// selected tables, exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table     = fs.Int("table", 0, "regenerate one table (1-8, 9 = ablations, 10 = f23-f34, 11 = seed sweep); 0 = all")
		figure    = fs.Int("figure", 0, "regenerate one figure (6); 0 = all")
		seed      = fs.Int64("seed", 1, "master seed")
		maxRounds = fs.Int("max-rounds", core.DefaultMaxRounds, "round cap (the paper's 24-hour analog)")
		workers   = fs.Int("j", 0, "experiment-cell workers: 0 = one per CPU, 1 = serial")
		noTime    = fs.Bool("no-time", false, "leave wall-time columns out (byte-stable output)")
		traceDir  = fs.String("trace-dir", "", "write one JSONL explorer trace per experiment cell into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tables: "+format+"\n", a...)
		fs.Usage()
		return exitUsage
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments: %v", fs.Args())
	}
	if *maxRounds <= 0 { // core.Options.Validate's rule for max_rounds
		return usage("-max-rounds: must be positive (got %d)", *maxRounds)
	}
	if *seed == 0 { // core.Options.Validate's rule for seed
		return usage("-seed: must be nonzero")
	}
	if *workers < 0 {
		return usage("-j: must be >= 0 (0 = one per CPU), got %d", *workers)
	}
	picked := map[string]int{"table": *table, "figure": *figure}
	for _, f := range []string{"table", "figure"} {
		if picked[f] != 0 && !slices.ContainsFunc(eval.Generators, func(g eval.Generator) bool { return g.Flag == f && g.N == picked[f] }) {
			return usage("-%s %d: no such %s", f, picked[f], f)
		}
	}

	opt := eval.Options{
		Seed: *seed, MaxRounds: *maxRounds, Workers: *workers,
		NoTiming: *noTime, TraceDir: *traceDir,
	}
	all := *table == 0 && *figure == 0
	for _, g := range eval.Generators {
		if !all && picked[g.Flag] != g.N {
			continue
		}
		t, err := g.Run(opt)
		if err != nil {
			fmt.Fprintf(stderr, "tables: %v\n", err)
			return exitRuntime
		}
		fmt.Fprintln(stdout, t.Render())
	}
	return exitOK
}
