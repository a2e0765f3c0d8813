// Command trace pretty-prints, filters, aggregates and diffs the JSONL
// explorer traces emitted by cmd/anduril -trace and cmd/tables -trace-dir.
//
// Usage:
//
//	trace run.trace.jsonl                 # pretty-print every event
//	trace -site zk.election.accept run.trace.jsonl
//	trace -round 3 run.trace.jsonl
//	trace -event feedback run.trace.jsonl
//	trace -stats run.trace.jsonl          # aggregate counters/histograms
//	trace -diff a.trace.jsonl b.trace.jsonl
//	anduril -failure f3 -trace - | trace -  # read from stdin
//
// Filters compose (AND). -diff compares two traces event by event and
// exits 1 on the first divergence, so it doubles as a determinism check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"anduril/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 = events shown, stats printed or -diff identical,
// 1 = a trace could not be read, -diff found a divergence or no event
// matches the filters, 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		site    = fs.String("site", "", "only events touching this fault site (substring match)")
		round   = fs.Int("round", 0, "only events of this round, 0 = all (free_run/outcome always shown)")
		event   = fs.String("event", "", "only events of this type ("+eventTypeList()+")")
		stats   = fs.Bool("stats", false, "print aggregate counters and histograms instead of events")
		diff    = fs.Bool("diff", false, "compare two trace files event by event; exit 1 if they differ")
		maxDiff = fs.Int("max-diffs", 10, "divergences to report in -diff mode")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "trace: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	switch {
	case *diff && fs.NArg() != 2:
		return usage("-diff needs exactly two trace files")
	case !*diff && fs.NArg() != 1:
		return usage("one trace file required ('-' = stdin)")
	case *event != "" && !slices.Contains(trace.EventTypes, trace.EventType(*event)):
		return usage("-event: unknown event type %q", *event)
	case *round < 0:
		return usage("-round: must not be negative (got %d; 0 = every round)", *round)
	case *maxDiff < 1:
		return usage("-max-diffs: must be positive (got %d)", *maxDiff)
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "trace: %v\n", err)
		return 1
	}

	if *diff {
		a, err := readTrace(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readTrace(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		ds := trace.Diff(a, b, *maxDiff)
		if len(ds) == 0 {
			fmt.Fprintf(stdout, "identical: %d events\n", len(a))
			return 0
		}
		fmt.Fprintf(stdout, "traces differ (%d vs %d events):\n", len(a), len(b))
		for _, d := range ds {
			fmt.Fprintln(stdout, d)
		}
		return 1
	}

	events, err := readTrace(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	if *stats {
		printStats(stdout, trace.AggregateStats(events))
		return 0
	}
	shown := 0
	for i := range events {
		ev := &events[i]
		if !match(ev, *site, *round, trace.EventType(*event)) {
			continue
		}
		fmt.Fprintln(stdout, render(ev))
		shown++
	}
	if shown == 0 {
		return fail(fmt.Errorf("no events match the filters"))
	}
	return 0
}

func readTrace(path string) ([]trace.Event, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadAll(r)
}

// match applies the -site/-round/-event filters. The stream's frame
// events (free_run, outcome) carry no round and survive a -round filter
// so filtered output stays self-describing.
func match(ev *trace.Event, site string, round int, typ trace.EventType) bool {
	if typ != "" && ev.Type != typ {
		return false
	}
	if round > 0 && ev.Round != round && ev.Type != trace.FreeRun && ev.Type != trace.Outcome {
		return false
	}
	if site != "" && !touchesSite(ev, site) {
		return false
	}
	return true
}

func touchesSite(ev *trace.Event, site string) bool {
	if strings.Contains(ev.Site, site) {
		return true
	}
	for _, s := range ev.Sites {
		if strings.Contains(s.Site, site) {
			return true
		}
	}
	for _, s := range ev.Top {
		if strings.Contains(s.Site, site) {
			return true
		}
	}
	for _, c := range ev.Candidates {
		if strings.Contains(c.Site, site) {
			return true
		}
	}
	// A pair injection touches both member sites, not just the pseudo-site.
	for _, m := range ev.Members {
		if strings.Contains(m.Site, site) {
			return true
		}
	}
	for _, d := range ev.Deltas {
		if strings.Contains(d.Site, site) {
			return true
		}
	}
	return false
}

// render formats one event as a human-readable line (or a few, for the
// snapshot events).
func render(ev *trace.Event) string {
	var b strings.Builder
	switch ev.Type {
	case trace.FreeRun:
		fmt.Fprintf(&b, "free run: target=%s strategy=%s seed=%d — %d log lines, %d observables, %d candidate sites",
			ev.Target, ev.Strategy, ev.Seed, ev.LogLines, len(ev.Observables), len(ev.Sites))
		for _, s := range ev.Sites {
			fmt.Fprintf(&b, "\n  site %-45s %d instances", s.Site, s.Instances)
		}
	case trace.RoundStart:
		fmt.Fprintf(&b, "round %3d: window=%d", ev.Round, ev.Window)
		if ev.RootRank > 0 {
			fmt.Fprintf(&b, " rank(root)=%d", ev.RootRank)
		}
		fmt.Fprintf(&b, " candidates=%d:", ev.CandidateCount)
		for _, c := range ev.Candidates {
			fmt.Fprintf(&b, " %s", candidateRef(c))
		}
		if ev.CandidateCount > len(ev.Candidates) {
			fmt.Fprintf(&b, " … (+%d more)", ev.CandidateCount-len(ev.Candidates))
		}
		for i, s := range ev.Top {
			fmt.Fprintf(&b, "\n  #%d %-45s F=%v tried=%d", i+1, s.Site, float64(s.F), s.Tried)
			if s.BestObs != "" {
				fmt.Fprintf(&b, " via %q", clip(s.BestObs, 50))
			}
		}
	case trace.SecondPass:
		fmt.Fprintf(&b, "round %3d: second pass — a class's first pass ended; its tried sets cleared, window reset", ev.Round)
	case trace.Injected, trace.EnvInjected, trace.PartialInjected, trace.PairInjected:
		fmt.Fprintf(&b, "round %3d: injected ", ev.Round)
		switch ev.Type {
		case trace.Injected:
			fmt.Fprintf(&b, "%s#%d", ev.Site, ev.Occ)
			if ev.Path != "" {
				fmt.Fprintf(&b, " at path %s", ev.Path)
			}
		case trace.PairInjected:
			fmt.Fprintf(&b, "pair %s#%d", ev.Site, ev.Occ)
			for i, m := range ev.Members {
				sep := " ["
				if i > 0 {
					sep = " + "
				}
				fmt.Fprintf(&b, "%s%s", sep, candidateRef(m))
			}
			if len(ev.Members) > 0 {
				b.WriteString("]")
			}
		default:
			// env_injected / partial_injected: the family is the event type's
			// first word; an env pair reads a/b, a partial channel from>to.
			family, sep := "env", "/"
			if ev.Type == trace.PartialInjected {
				family, sep = "partial", ">"
			}
			subject := ev.Subject
			if ev.Peer != "" {
				subject += sep + ev.Peer
			}
			fmt.Fprintf(&b, "%s %s on %s (%s#%d", family, ev.Class, subject, ev.Site, ev.Occ)
			if ev.Dur > 0 {
				fmt.Fprintf(&b, ", %dms", ev.Dur/1_000_000)
			}
			b.WriteString(")")
		}
		if ev.Satisfied {
			b.WriteString(" — ORACLE SATISFIED")
		} else {
			b.WriteString(" — oracle not satisfied")
		}
	case trace.WindowGrow:
		fmt.Fprintf(&b, "round %3d: no candidate occurred; window %d -> %d", ev.Round, ev.From, ev.To)
	case trace.Feedback:
		fmt.Fprintf(&b, "round %3d: feedback — %d observables still missing, %d priorities adjusted",
			ev.Round, ev.Missing, len(ev.Bumped))
		for _, o := range ev.Bumped {
			fmt.Fprintf(&b, "\n  I[%s] -> %d", clip(o.Obs, 60), o.Priority)
		}
		for _, d := range ev.Deltas {
			fmt.Fprintf(&b, "\n  F[%s] %v -> %v", d.Site, float64(d.Before), float64(d.After))
		}
	case trace.Inconclusive:
		fmt.Fprintf(&b, "round %3d: inconclusive — %s", ev.Round, ev.Class)
		if ev.Site != "" {
			fmt.Fprintf(&b, " after injecting %s#%d", ev.Site, ev.Occ)
		}
		if ev.Seed != 0 {
			fmt.Fprintf(&b, " trial-seed=%d", ev.Seed)
		}
		if ev.Actor != "" {
			fmt.Fprintf(&b, " actor=%s", ev.Actor)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, " (%s)", clip(ev.Detail, 80))
		}
	case trace.Outcome:
		fmt.Fprintf(&b, "outcome: reproduced=%v rounds=%d reason=%s", ev.Reproduced, ev.Rounds, ev.Reason)
		if ev.Reproduced {
			fmt.Fprintf(&b, " script=%s seed=%d", candidateRef(trace.Candidate{Site: ev.Site, Occ: ev.Occ, Path: ev.Path}), ev.ScriptSeed)
		}
	default:
		return trace.Line(ev)
	}
	return b.String()
}

// eventTypeList renders the event types for the -event help.
func eventTypeList() string {
	names := make([]string, len(trace.EventTypes))
	for i, t := range trace.EventTypes {
		names[i] = string(t)
	}
	return strings.Join(names, ", ")
}

// candidateRef renders one window candidate or pair member: its canonical
// path under path addressing, site#occ otherwise.
func candidateRef(c trace.Candidate) string {
	if c.Path != "" {
		return c.Path
	}
	return fmt.Sprintf("%s#%d", c.Site, c.Occ)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func printStats(w io.Writer, s trace.Stats) {
	fmt.Fprintf(w, "rounds:            %d\n", s.Rounds)
	fmt.Fprintf(w, "injections:        %d\n", s.Injections)
	fmt.Fprintf(w, "empty rounds:      %d (no candidate occurred)\n", s.EmptyRound)
	fmt.Fprintf(w, "inconclusive:      %d (trial failed after retry)\n", s.Inconclusive)
	fmt.Fprintf(w, "reproduced:        %v\n", s.Reproduced)
	fmt.Fprintf(w, "events by type:\n")
	for _, k := range sortedKeys(s.Events) {
		fmt.Fprintf(w, "  %-12s %d\n", k, s.Events[trace.EventType(k)])
	}
	fmt.Fprintf(w, "window sizes (size: rounds):\n")
	for _, k := range sortedInts(s.WindowSizes) {
		fmt.Fprintf(w, "  %4d: %d\n", k, s.WindowSizes[k])
	}
	fmt.Fprintf(w, "candidates per round (candidates: rounds):\n")
	for _, k := range sortedInts(s.DecisionSz) {
		fmt.Fprintf(w, "  %4d: %d\n", k, s.DecisionSz[k])
	}
	fmt.Fprintf(w, "trials per site:\n")
	for _, k := range sortedKeys(s.SiteTrials) {
		fmt.Fprintf(w, "  %-45s %d\n", k, s.SiteTrials[k])
	}
}

func sortedKeys[V any, K ~string](m map[K]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

func sortedInts[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
