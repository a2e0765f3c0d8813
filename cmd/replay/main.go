// Command replay executes a reproduction script produced by
// `anduril -script-out` (workflow step 4.a): it re-runs the failure's
// workload with the scripted fault(s) injected deterministically, checks
// the oracle, and prints the failure log around the injection.
//
// Usage:
//
//	replay -failure f17 -script f17.json [-seed 1] [-tail 15]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"anduril"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

func main() {
	var (
		failure = flag.String("failure", "", "dataset failure the script belongs to (f1..f34)")
		script  = flag.String("script", "", "reproduction script JSON (from anduril -script-out)")
		seed    = flag.Int64("seed", 1, "seed of the replay environment")
		tail    = flag.Int("tail", 15, "failure-log lines to print")
	)
	flag.Parse()
	if *failure == "" || *script == "" {
		fmt.Fprintln(os.Stderr, "replay: -failure and -script required")
		flag.Usage()
		os.Exit(2)
	}

	target, err := anduril.Dataset(*failure)
	if err != nil {
		fail(err)
	}
	data, err := os.ReadFile(*script)
	if err != nil {
		fail(err)
	}
	sf, err := core.LoadScript(data)
	if err != nil {
		fail(err)
	}
	fmt.Printf("replaying %s (%s) with %d scripted fault(s):\n", target.ID, target.Issue, len(sf.Faults))
	for _, line := range describeFaults(sf) {
		fmt.Println("  " + line)
	}

	res := cluster.Execute(*seed, sf.Plan(), false, target.Workload, target.Horizon)
	satisfied := target.Oracle.Satisfied(res)
	fmt.Printf("oracle %q satisfied: %v\n", target.Oracle.Name, satisfied)
	if len(res.Blocked) > 0 {
		fmt.Printf("stuck threads: %s\n", strings.Join(res.Blocked, ", "))
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
	fmt.Printf("\nlast %d warning/error lines of the replayed log:\n", len(warns))
	for _, e := range warns {
		fmt.Printf("  [%s] %s %s\n", e.Thread, e.Level, e.Msg)
	}

	if !satisfied {
		os.Exit(1)
	}
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

func fail(err error) {
	fmt.Fprintf(os.Stderr, "replay: %v\n", err)
	os.Exit(1)
}
