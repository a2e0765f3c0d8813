// Command replay executes a reproduction script produced by
// `anduril -script-out` (workflow step 4.a): it re-runs the workload of
// the failure the script names with the scripted fault(s) injected
// deterministically, checks the oracle, and prints the failure log around
// the injection.
//
// Usage:
//
//	replay -script f17.json [-seed N] [-tail 15]
//
// The replay runs under the seed the script file records (the seed of the
// search round that reproduced the failure); -seed overrides it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anduril"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 = the oracle is satisfied, 1 = it is not, or the
// replay could not run or be judged (stderr names the trial failure class:
// panic, event-budget or oracle) or the script names no dataset failure,
// 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		script = fs.String("script", "", "reproduction script JSON (from anduril -script-out)")
		seed   = fs.Int64("seed", 0, "seed of the replay environment (default: the seed the script records)")
		tail   = fs.Int("tail", 15, "failure-log lines to print")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "replay: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	switch {
	case fs.NArg() != 0:
		return usage("unexpected arguments: %v", fs.Args())
	case *script == "":
		return usage("-script required")
	case *tail < 0:
		return usage("-tail: must not be negative (got %d)", *tail)
	}
	fail := func(err error) int {
		// The library's errors carry their own prefix.
		fmt.Fprintf(stderr, "replay: %s\n", strings.TrimPrefix(err.Error(), "anduril: "))
		return 1
	}

	data, err := os.ReadFile(*script)
	if err != nil {
		return fail(err)
	}
	sf, err := core.LoadScript(data)
	if err != nil {
		return fail(err)
	}
	target, err := anduril.Dataset(sf.Target)
	if err != nil {
		return fail(err)
	}
	// An occurrence number names a dynamic instance only under the seed
	// that counted it, so the file's seed is the default; an explicit
	// -seed (0 included) asks whether the script holds under another.
	replaySeed := sf.Seed
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			replaySeed = *seed
		}
	})
	fmt.Fprintf(stdout, "replaying %s (%s) under seed %d with %d scripted fault(s):\n",
		target.ID, target.Issue, replaySeed, len(sf.Faults))
	for _, line := range describeFaults(sf) {
		fmt.Fprintln(stdout, "  "+line)
	}

	res, satisfied, err := core.Replay(target, replaySeed, sf.Faults...)
	if err != nil {
		return fail(fmt.Errorf("the script's run cannot be judged: %w", err))
	}
	fmt.Fprintf(stdout, "oracle %q satisfied: %v\n", target.Oracle.Name, satisfied)
	if stuck := res.Env.Sim.Blocked(); len(stuck) > 0 {
		fmt.Fprintf(stdout, "stuck threads: %s\n", strings.Join(stuck, ", "))
	}

	var warns []logging.Entry
	for _, e := range res.Entries {
		if e.Level >= logging.Warn {
			warns = append(warns, e)
		}
	}
	if len(warns) > *tail {
		warns = warns[len(warns)-*tail:]
	}
	fmt.Fprintf(stdout, "\nlast %d warning/error lines of the replayed log:\n", len(warns))
	for _, e := range warns {
		fmt.Fprintf(stdout, "  [%s] %s %s\n", e.Thread, e.Level, e.Msg)
	}

	if !satisfied {
		return 1
	}
	return 0
}

// describeFaults renders one line per scripted fault: a site by its
// occurrence, a path-addressed fault by its path address, a pair as its
// two members.
func describeFaults(sf *core.ScriptFile) []string {
	one := func(f inject.Instance) string {
		if f.Path != "" {
			return fmt.Sprintf("%s at path %s", f.Site, f.Path)
		}
		return fmt.Sprintf("%s at occurrence %d", f.Site, f.Occurrence)
	}
	lines := make([]string, len(sf.Faults))
	for i, f := range sf.Faults {
		if a, b, ok := inject.PairMembers(f); ok {
			lines[i] = fmt.Sprintf("pair of %s and %s", one(a), one(b))
		} else {
			lines[i] = one(f)
		}
	}
	return lines
}
