// Command anduril reproduces one of the dataset failures from the command
// line, printing per-round progress and the final deterministic
// reproduction script.
//
// Usage:
//
//	anduril -list
//	anduril -list-strategies                       # every name -strategy accepts
//	anduril -failure f17 [-strategy full-feedback] [-seed 1] [-max-rounds 500] [-window 10] [-adjust 1] [-v]
//	anduril -failure f9 -strategy fixed-window     # a §5.2.4 design-choice ablation
//	anduril -failure f3 -trace run.trace.jsonl     # structured JSONL trace of the search
//	anduril -failure f3 -trace - | trace -stats -  # '-' streams the trace to stdout
//	anduril -failure f23 -fault-classes=env,site   # widen the search to environment faults
//	anduril -failure f26                           # dyn anti-entropy failure (convergence oracle)
//	anduril -failure f30                           # combined-fault failure (searched as fault pairs)
//	anduril -failure f32                           # partial-failure root cause (torn rename)
//	anduril -failure f1 -fault-classes=site,partial  # widen a site search to partial failures
//	anduril -failure f17 -addressing=path          # path-sensitive injection addressing
//
// Exit codes: 0 = reproduced (or an informational command), 1 = internal
// error, 2 = usage error, 3 = search exhausted without reproducing,
// 4 = search interrupted by SIGINT or SIGTERM (re-run it to search again).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"anduril"
	"anduril/internal/core"
	"anduril/internal/trace"
)

// Exit codes. Distinct codes let scripts tell "the search ran and the
// failure did not reproduce" (a result) from "the tool itself failed"
// (a defect) from "the search was interrupted" (no result yet).
const (
	exitOK            = 0
	exitInternal      = 1
	exitUsage         = 2
	exitNotReproduced = 3
	exitInterrupted   = 4
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main minus the process boundary: parse, validate, search, exit
// code. Cancelling ctx interrupts the search (exit 4).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anduril", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list the dataset failures and exit")
		listStrat = fs.Bool("list-strategies", false, "list every exploration strategy (Table 2 column order, then the design-choice ablations) and exit")
		failure   = fs.String("failure", "", "dataset failure to reproduce (f1..f34 or issue id)")
		strategy  = fs.String("strategy", string(anduril.FullFeedback), "exploration strategy (see -list-strategies)")
		seed      = fs.Int64("seed", 1, "master seed (round r runs with seed+r)")
		maxRounds = fs.Int("max-rounds", core.DefaultMaxRounds, "round cap (the paper's 24-hour analog)")
		window    = fs.Int("window", core.DefaultWindow, "initial flexible-window size k")
		adjust    = fs.Int("adjust", core.DefaultAdjust, "observable priority adjustment s")
		verbose   = fs.Bool("v", false, "print every round")
		scriptOut = fs.String("script-out", "", "write the reproduction script as JSON to this file")
		dotOut    = fs.String("graph-dot", "", "write the static causal graph (Graphviz) to this file")
		traceOut  = fs.String("trace", "", "write a JSONL explorer trace to this file ('-' = stdout, for piping into cmd/trace)")
		classes   = fs.String("fault-classes", "", "comma-separated fault classes to search: site, env, pair, partial (default: the failure's own classes)")
		addrMode  = fs.String("addressing", "", "injection addressing mode: occurrence (default) or path")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "anduril: "+format+"\n", a...)
		fs.Usage()
		return exitUsage
	}
	fail := func(format string, a ...any) int {
		// The library's errors carry this prefix already.
		fmt.Fprintf(stderr, "anduril: %s\n", strings.TrimPrefix(fmt.Sprintf(format, a...), "anduril: "))
		return exitInternal
	}

	if fs.NArg() != 0 {
		return usage("unexpected arguments: %v", fs.Args())
	}
	opts := anduril.Options{
		Strategy: anduril.Strategy(*strategy), Seed: *seed,
		MaxRounds: *maxRounds, Window: *window, Adjust: *adjust,
		FaultClasses: core.SplitFaultClasses(*classes),
		Addressing:   anduril.Addressing(*addrMode),
		Context:      ctx,
	}
	if err := opts.Validate(); err != nil {
		// The explorer names the option by its snake_case key; the flag is
		// the same name with hyphens.
		var oe *core.OptionError
		if errors.As(err, &oe) {
			err = fmt.Errorf("-%s: %s", strings.ReplaceAll(oe.Option, "_", "-"), oe.Problem)
		}
		return usage("%v", err)
	}

	if *list {
		fmt.Fprintf(stdout, "%-5s %-10s %-11s %s\n", "id", "issue", "system", "description")
		for _, info := range anduril.DatasetCatalog() {
			fmt.Fprintf(stdout, "%-5s %-10s %-11s %s\n", info.ID, info.Issue, info.System, info.Description)
		}
		return exitOK
	}
	if *listStrat {
		for _, s := range core.AllStrategies() {
			fmt.Fprintln(stdout, s)
		}
		return exitOK
	}
	if *failure == "" {
		return usage("-failure or -list required")
	}

	// Resolved before -trace opens its file: a failed build leaves it alone.
	target, err := anduril.Dataset(*failure)
	if err != nil {
		return fail("%v", err)
	}

	// out carries the human-readable progress output. It is stdout unless
	// -trace - claims stdout for the JSONL stream, in which case the
	// progress moves to stderr so `anduril -trace - | trace -` stays clean.
	out := stdout
	if *traceOut != "" {
		w := stdout
		if *traceOut == "-" {
			out = stderr
		} else {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fail("%v", err)
			}
			defer f.Close()
			w = f
		}
		sink := trace.NewWriter(w)
		opts.Trace = sink
		defer func() {
			if err := sink.Err(); err != nil {
				fmt.Fprintf(stderr, "anduril: trace: %v\n", err)
			}
		}()
	}

	fmt.Fprintf(out, "reproducing %s (%s) on %s: %s\n", target.ID, target.Issue, target.System, target.Description)

	if *dotOut != "" {
		dot := target.Analysis.Graph.DOT(target.ID, 400)
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(out, "causal graph written to %s (%d nodes, %d edges)\n",
			*dotOut, target.Analysis.Graph.NumNodes(), target.Analysis.Graph.NumEdges())
	}

	report := anduril.Reproduce(target, opts)
	if report.Error != "" {
		return fail("search failed: %s", report.Error)
	}

	fmt.Fprintf(out, "free run: %d log lines, %d relevant observables, %d candidate sites, %d candidate instances\n",
		report.FreeRunLogLines, report.RelevantObservables, report.CandidateSites, report.CandidateInstances)
	if *verbose {
		for _, rd := range report.RoundLog {
			injected := "no candidate occurred"
			if rd.Injected != nil {
				injected = fmt.Sprintf("injected %s#%d", rd.Injected.Site, rd.Injected.Occurrence)
				if rd.Injected.Path != "" {
					injected = "injected " + rd.Injected.Path
				}
			}
			fmt.Fprintf(out, "  round %3d: window=%d rank(root)=%d %s satisfied=%v\n",
				rd.N, rd.WindowSize, rd.RootRank, injected, rd.Satisfied)
		}
	}

	if report.Interrupted {
		fmt.Fprintf(out, "INTERRUPTED after %d rounds (%.2fs); re-run to search again\n",
			report.Rounds, report.Elapsed.Seconds())
		return exitInterrupted
	}
	if !report.Reproduced {
		fmt.Fprintf(out, "NOT reproduced after %d rounds (%.2fs): %s\n", report.Rounds, report.Elapsed.Seconds(), report.Reason)
		return exitNotReproduced
	}
	fmt.Fprintf(out, "REPRODUCED in %d rounds (%.2fs)\n", report.Rounds, report.Elapsed.Seconds())
	fmt.Fprintln(out, anduril.Script(report))

	if anduril.Verify(target, *report.Script, report.ScriptSeed) {
		fmt.Fprintln(out, "script verified: deterministic replay satisfies the oracle")
	} else {
		fmt.Fprintf(out, "warning: script replay did not satisfy the oracle under its seed %d\n", report.ScriptSeed)
	}
	if *scriptOut != "" {
		if err := writeScript(*scriptOut, report); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(out, "reproduction script written to %s\n", *scriptOut)
	}
	return exitOK
}

func writeScript(path string, report *anduril.Report) error {
	script, err := core.ScriptOf(report)
	if err != nil {
		return err
	}
	data, err := script.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
