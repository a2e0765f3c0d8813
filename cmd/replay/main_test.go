package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anduril"
	"anduril/internal/core"
)

// f3Script writes the script file of f3, the quickstart failure, into a
// temporary directory and returns its path and contents. f3 reproduces in
// round 1 — under seed 2 — and its script is bound to that seed in
// occurrence mode.
func f3Script(t *testing.T) (string, []byte) {
	t.Helper()
	target, err := anduril.Dataset("f3")
	if err != nil {
		t.Fatal(err)
	}
	rep := anduril.Reproduce(target, anduril.Options{Seed: 1, MaxRounds: 500})
	sf, err := core.ScriptOf(rep)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Seed != rep.ScriptSeed || sf.Seed == 1 {
		t.Fatalf("script file seed %d, report seed %d; the fixture must reproduce off seed 1", sf.Seed, rep.ScriptSeed)
	}
	data, err := sf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f3.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestReplayRunsUnderTheScriptSeed: a file written by ScriptOf replays with
// no -seed; an explicit -seed overrides the file; a file from before the
// field existed replays under 1, as it always did.
func TestReplayRunsUnderTheScriptSeed(t *testing.T) {
	current, data := f3Script(t)
	legacy := filepath.Join(filepath.Dir(current), "f3.legacy.json")
	seedLine := []byte("\n  \"seed\": 2,")
	if !bytes.Contains(data, seedLine) {
		t.Fatalf("script file does not record its seed:\n%s", data)
	}
	if err := os.WriteFile(legacy, bytes.Replace(data, seedLine, nil, 1), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"file seed", []string{"-script", current}, 0, "under seed 2 "},
		{"explicit -seed overrides the file", []string{"-script", current, "-seed", "1"}, 1, "under seed 1 "},
		{"explicit -seed matching the file", []string{"-script", current, "-seed", "2"}, 0, "under seed 2 "},
		{"file without the field", []string{"-script", legacy}, 1, "under seed 1 "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q on stdout; stderr %q, stdout:\n%s",
				c.name, code, c.code, c.want, stderr.String(), stdout.String())
		}
		if satisfied := strings.Contains(stdout.String(), "satisfied: true"); satisfied != (c.code == 0) {
			t.Errorf("%s: exit %d but satisfied=%v", c.name, code, satisfied)
		}
	}
}

// Input replay cannot honour is a usage error (exit 2) with a message and
// no replay, even next to a script that replays.
func TestUsageErrors(t *testing.T) {
	script, _ := f3Script(t)
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"negative tail", []string{"-script", script, "-tail", "-1"}, "-tail: must not be negative (got -1)"},
		{"positional junk", []string{"-script", script, "extra"}, "unexpected arguments: [extra]"},
		{"no script", nil, "-script required"},
		// The script names its failure; there is no second place to name it.
		{"failure flag", []string{"-failure", "f4", "-script", script}, "flag provided but not defined: -failure"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 2 naming %q and no replay",
				c.name, code, stderr.String(), stdout.String(), c.want)
		}
	}
}

// f99Script writes f3's script file retargeted at f99, which is no dataset
// failure, and returns its path.
func f99Script(t *testing.T) string {
	t.Helper()
	_, data := f3Script(t)
	path := filepath.Join(t.TempDir(), "f99.json")
	if err := os.WriteFile(path, bytes.Replace(data, []byte(`"target": "f3"`), []byte(`"target": "f99"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A script whose target is no dataset failure cannot be replayed: exit 1
// naming the target, before any replay.
func TestUnknownScriptTarget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-script", f99Script(t)}, &stdout, &stderr); code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), `"f99"`) {
		t.Errorf("exit %d, stderr %q, stdout %q; want exit 1 naming \"f99\" and no replay", code, stderr.String(), stdout.String())
	}
}

// TestUnknownTargetSaysReplayOnce: the library's error already names the
// library; the CLI says replay once and nothing else.
func TestUnknownTargetSaysReplayOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-script", f99Script(t)}, &stdout, &stderr)
	if got := stderr.String(); code != 1 || strings.Count(got, "replay:") != 1 || strings.Contains(got, "anduril:") {
		t.Errorf("exit %d, stderr %q; want exit 1 and exactly one \"replay:\" prefix", code, got)
	}
}

// TestDescribeFaults: replay reads its script from outside the program.
// Every shape of fault is listed by the address it will actually fire at,
// and a script naming a fault no run can reach fails at load.
func TestDescribeFaults(t *testing.T) {
	cases := []struct {
		name, faults string
		want         []string
		wantErr      string
	}{
		{"site", `[{"Site":"zk.sync.append-txn","Occurrence":3}]`,
			[]string{"zk.sync.append-txn at occurrence 3"}, ""},
		{"path-addressed", `[{"Site":"dyn.store.persist","Occurrence":7,"Path":"client.put>coord.write[2]>dyn.store.persist#1"}]`,
			[]string{"dyn.store.persist at path client.put>coord.write[2]>dyn.store.persist#1"}, ""},
		{"pair", `[{"Site":"pair/env/crash/zk2+zk.sync.append-txn","Occurrence":5,"Path":"env/crash/zk2#1+zk.sync.append-txn:2"}]`,
			[]string{"pair of env/crash/zk2 at path env/crash/zk2#1 and zk.sync.append-txn at occurrence 2"}, ""},
		{"malformed", `[{"Site":"zk.sync.append-txn","Occurrence":0}]`, nil, "needs an occurrence >= 1 or a path"},
	}
	for _, c := range cases {
		sf, err := core.LoadScript([]byte(`{"target":"t","faults":` + c.faults + `}`))
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: LoadScript err = %v, want it to name %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := describeFaults(sf); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: listing %q, want %q", c.name, got, c.want)
		}
	}
}
