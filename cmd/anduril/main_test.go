package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/server"
	"anduril/internal/trace"
)

// Input the command cannot honour is a usage error (exit 2) with a message
// naming the problem, rejected before any search runs.
func TestUsageErrors(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		// Exit 4 would promise a search -resume can continue, and nothing
		// was saved.
		{"stop-after without checkpoint", []string{"-failure", "f4", "-stop-after", "2"}, "-stop-after requires -checkpoint"},
		{"resume without checkpoint", []string{"-failure", "f4", "-resume"}, "-resume requires -checkpoint"},
		{"positional junk", []string{"-failure", "f4", "-checkpoint", ck, "extra"}, "unexpected arguments: [extra]"},
		{"zero window", []string{"-failure", "f4", "-window", "0"}, "-window: must be positive (got 0)"},
		{"unknown strategy", []string{"-failure", "f4", "-strategy", "bogus"}, `-strategy: unknown strategy "bogus"`},
		{"no failure", nil, "-failure or -list required"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != exitUsage || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("exit %d, stderr %q, stdout %q; want exit %d naming %q and no search",
					code, stderr.String(), stdout.String(), exitUsage, c.want)
			}
		})
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("a rejected invocation wrote the checkpoint file (stat: %v)", err)
	}
}

// TestListStrategies: -list-strategies prints exactly the names -strategy
// accepts.
func TestListStrategies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list-strategies"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var got []core.Strategy
	for _, name := range strings.Fields(stdout.String()) {
		got = append(got, core.Strategy(name))
	}
	if want := core.AllStrategies(); !slices.Equal(got, want) {
		t.Fatalf("listed %v, want %v", got, want)
	}
}

// TestSameSearchAsTheDaemon: at default flags the CLI runs the search the
// daemon runs for a spec naming only the failure — the trace bytes are
// equal — for every dataset failure.
func TestSameSearchAsTheDaemon(t *testing.T) {
	for _, sc := range failures.All() {
		t.Run(sc.ID, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), sc.ID+".trace.jsonl")
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-failure", sc.ID, "-trace", path}, &stdout, &stderr); code != exitOK {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			cli, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			tgt, err := sc.BuildTarget()
			if err != nil {
				t.Fatal(err)
			}
			var daemon bytes.Buffer
			opts := server.Spec{Failure: sc.ID}.Normalize().Options()
			opts.Trace = trace.NewWriter(&daemon)
			core.Reproduce(tgt, opts)
			if !bytes.Equal(cli, daemon.Bytes()) {
				t.Fatalf("CLI trace (%d bytes) differs from the spec's (%d bytes)", len(cli), daemon.Len())
			}
		})
	}
}
