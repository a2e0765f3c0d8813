package main

import (
	"bytes"
	"context"
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
	script := filepath.Join(t.TempDir(), "script.json")
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"positional junk", []string{"-failure", "f4", "-script-out", script, "extra"}, "unexpected arguments: [extra]"},
		{"zero window", []string{"-failure", "f4", "-window", "0"}, "-window: must be positive (got 0)"},
		{"zero seed", []string{"-failure", "f4", "-seed", "0"}, "-seed: must be nonzero"},
		{"unknown strategy", []string{"-failure", "f4", "-strategy", "bogus"}, `-strategy: unknown strategy "bogus"`},
		{"no failure", nil, "-failure or -list required"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), c.args, &stdout, &stderr); code != exitUsage || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("exit %d, stderr %q, stdout %q; want exit %d naming %q and no search",
					code, stderr.String(), stdout.String(), exitUsage, c.want)
			}
		})
	}
	if _, err := os.Stat(script); !os.IsNotExist(err) {
		t.Errorf("a rejected invocation wrote the script file (stat: %v)", err)
	}
}

// TestInterruptedExitsFour: a search whose context is cancelled — what
// SIGINT or SIGTERM does to the process — exits 4, says to re-run it, and
// writes no script.
func TestInterruptedExitsFour(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	script := filepath.Join(t.TempDir(), "script.json")
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-failure", "f4", "-script-out", script}, &stdout, &stderr); code != exitInterrupted {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitInterrupted, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "INTERRUPTED after 0 rounds") || !strings.Contains(stdout.String(), "re-run to search again") {
		t.Errorf("stdout %q does not say the search was interrupted and should be re-run", stdout.String())
	}
	if _, err := os.Stat(script); !os.IsNotExist(err) {
		t.Errorf("an interrupted search wrote the script file (stat: %v)", err)
	}
}

// TestNotReproducedExitsThree: a search that runs out of fault space
// without reproducing exits 3, names its end and writes no script.
func TestNotReproducedExitsThree(t *testing.T) {
	script := filepath.Join(t.TempDir(), "script.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-failure", "f16", "-strategy", "crashtuner", "-max-rounds", "100", "-script-out", script}
	if code := run(context.Background(), args, &stdout, &stderr); code != exitNotReproduced {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitNotReproduced, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "NOT reproduced after 10 rounds") || !strings.Contains(stdout.String(), trace.ReasonExhausted) {
		t.Errorf("stdout %q does not say the search ended unreproduced with the fault space exhausted", stdout.String())
	}
	if _, err := os.Stat(script); !os.IsNotExist(err) {
		t.Errorf("an unreproduced search wrote the script file (stat: %v)", err)
	}
}

// TestUnknownFailureLeavesTraceFileAlone: a failure that cannot be built
// is an internal error (exit 1) reported under one prefix, and the file
// -trace names is not opened, so whatever it held is still there.
func TestUnknownFailureLeavesTraceFileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	before := []byte("{\"kept\":1}")
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-failure", "nope", "-trace", path}, &stdout, &stderr); code != exitInternal {
		t.Fatalf("exit %d, want %d\nstderr: %s", code, exitInternal, stderr.String())
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("trace file now %q (err %v), was %q", after, err, before)
	}
	if n := strings.Count(stderr.String(), "anduril:"); n != 1 {
		t.Errorf("stderr %q says \"anduril:\" %d times, want once", stderr.String(), n)
	}
}

// TestListStrategies: -list-strategies prints exactly the names -strategy
// accepts.
func TestListStrategies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list-strategies"}, &stdout, &stderr); code != exitOK {
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
			if code := run(context.Background(), []string{"-failure", sc.ID, "-trace", path}, &stdout, &stderr); code != exitOK {
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
