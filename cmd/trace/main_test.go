package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anduril/internal/trace"
)

func TestRenderInjectedEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   trace.Event
		want string
	}{
		{"priority round", trace.Event{Type: trace.RoundStart, Round: 4, Window: 20, RootRank: 2, CandidateCount: 12,
			Top: []trace.SiteRank{{Site: "zk.snap.write-body", F: 1.5, BestObs: "snapshot written", Tried: 3},
				{Site: "zk.sync.append-txn", F: 4}},
			Candidates: []trace.Candidate{{Site: "zk.snap.write-body", Occ: 4}, {Site: "zk.sync.append-txn", Occ: 1, Path: "r>zk.sync.append-txn#1"}}},
			"round   4: window=20 rank(root)=2 candidates=12: zk.snap.write-body#4 r>zk.sync.append-txn#1 … (+10 more)" +
				"\n  #1 zk.snap.write-body                            F=1.5 tried=3 via \"snapshot written\"" +
				"\n  #2 zk.sync.append-txn                            F=4 tried=0"},
		{"queue round", trace.Event{Type: trace.RoundStart, Round: 7, Window: 10, CandidateCount: 1,
			Candidates: []trace.Candidate{{Site: "zk.sync.append-txn", Occ: 3}}},
			"round   7: window=10 candidates=1: zk.sync.append-txn#3"},
		// A retired event type, as a trace stored by an older daemon holds
		// it, prints as its raw line.
		{"older decision", trace.Event{Type: "decision", Round: 1, Window: 10, CandidateCount: 1},
			`{"event":"decision","round":1,"window":10,"candidate_count":1}`},
		{"site", trace.Event{Type: trace.Injected, Round: 3, Site: "zk.sync.append-txn", Occ: 2},
			"round   3: injected zk.sync.append-txn#2 — oracle not satisfied"},
		{"site path satisfied", trace.Event{Type: trace.Injected, Round: 12, Site: "a.x", Occ: 1, Path: "r>a.x#1", Satisfied: true},
			"round  12: injected a.x#1 at path r>a.x#1 — ORACLE SATISFIED"},
		{"env crash", trace.Event{Type: trace.EnvInjected, Round: 1, Site: "env/crash/zk1", Occ: 4,
			Class: "crash", Subject: "zk1", Dur: 600_000_000, Satisfied: true},
			"round   1: injected env crash on zk1 (env/crash/zk1#4, 600ms) — ORACLE SATISFIED"},
		{"env drop", trace.Event{Type: trace.EnvInjected, Round: 2, Site: "env/msg-drop/nn>dn1", Occ: 1,
			Class: "msg-drop", Subject: "nn", Peer: "dn1"},
			"round   2: injected env msg-drop on nn/dn1 (env/msg-drop/nn>dn1#1) — oracle not satisfied"},
		{"partial disk", trace.Event{Type: trace.PartialInjected, Round: 2, Site: "partial/disk/torn-rename/dfs.namenode.rename-edits", Occ: 1,
			Class: "torn-rename", Subject: "dfs.namenode.rename-edits", Satisfied: true},
			"round   2: injected partial torn-rename on dfs.namenode.rename-edits (partial/disk/torn-rename/dfs.namenode.rename-edits#1) — ORACLE SATISFIED"},
		{"partial channel", trace.Event{Type: trace.PartialInjected, Round: 1, Site: "partial/net/dup-deliver/mq-producer-1>broker-a", Occ: 1,
			Class: "dup-deliver", Subject: "mq-producer-1", Peer: "broker-a"},
			"round   1: injected partial dup-deliver on mq-producer-1>broker-a (partial/net/dup-deliver/mq-producer-1>broker-a#1) — oracle not satisfied"},
		{"pair", trace.Event{Type: trace.PairInjected, Round: 7, Site: "pair/a.x+env/crash/n1", Occ: 5,
			Members: []trace.Candidate{{Site: "a.x", Occ: 1}, {Site: "env/crash/n1", Path: "env/crash/n1#2"}}},
			"round   7: injected pair pair/a.x+env/crash/n1#5 [a.x#1 + env/crash/n1#2] — oracle not satisfied"},
		// The outcome names the script as the injected line does: by its
		// path when it has one (f26 and f30 in path mode, f30's pair members
		// in occurrence mode), by site#occ otherwise.
		{"outcome site", trace.Event{Type: trace.Outcome, Site: "dyn.gossip.pull-ring", Occ: 2,
			Reproduced: true, Rounds: 1, Reason: trace.ReasonReproduced, ScriptSeed: 2},
			"outcome: reproduced=true rounds=1 reason=reproduced script=dyn.gossip.pull-ring#2 seed=2"},
		{"outcome path", trace.Event{Type: trace.Outcome, Site: "dyn.gossip.pull-ring", Occ: 2,
			Path: "dyn.gossip.send-digest[37]>dyn.gossip.pull-ring#1", Reproduced: true, Rounds: 1,
			Reason: trace.ReasonReproduced, ScriptSeed: 2},
			"outcome: reproduced=true rounds=1 reason=reproduced script=dyn.gossip.send-digest[37]>dyn.gossip.pull-ring#1 seed=2"},
		{"outcome pair", trace.Event{Type: trace.Outcome, Site: "pair/dyn.handoff.replay-hint+dyn.store.persist-record", Occ: 540,
			Path: "dyn.handoff.replay-hint:18+dyn.store.persist-record:30", Reproduced: true, Rounds: 447,
			Reason: trace.ReasonReproduced, ScriptSeed: 448},
			"outcome: reproduced=true rounds=447 reason=reproduced script=dyn.handoff.replay-hint:18+dyn.store.persist-record:30 seed=448"},
		{"outcome not reproduced", trace.Event{Type: trace.Outcome, Rounds: 500, Reason: trace.ReasonRoundCap},
			"outcome: reproduced=false rounds=500 reason=round-cap"},
	}
	for _, c := range cases {
		if got := render(&c.ev); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// Every event type has a human-readable rendering (none falls through to
// the raw JSON line) and is offered by the -event help.
func TestEveryEventTypeRendersAndIsListed(t *testing.T) {
	help := eventTypeList()
	for _, typ := range trace.EventTypes {
		if out := render(&trace.Event{Type: typ}); strings.HasPrefix(out, "{") {
			t.Errorf("%s renders as raw JSON: %s", typ, out)
		}
		if !strings.Contains(", "+help+",", ", "+string(typ)+",") {
			t.Errorf("-event help %q omits %s", help, typ)
		}
	}
}

// writeTrace writes events as a JSONL trace file in dir.
func writeTrace(t *testing.T, dir, name string, events ...trace.Event) string {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := range events {
		w.Emit(&events[i])
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes: 0 when there is something to show or the traces are
// identical, 1 when a trace cannot be read, two traces diverge or no event
// matches, 2 for input the command cannot honour — before reading a file.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	run1 := []trace.Event{
		{Type: trace.FreeRun, Target: "f3", Seed: 1},
		{Type: trace.Injected, Round: 1, Site: "a.x", Occ: 1},
		{Type: trace.Outcome, Rounds: 1, Reason: trace.ReasonRoundCap},
	}
	a := writeTrace(t, dir, "a.jsonl", run1...)
	same := writeTrace(t, dir, "same.jsonl", run1...)
	run2 := append([]trace.Event(nil), run1...)
	run2[1].Occ = 2
	other := writeTrace(t, dir, "other.jsonl", run2...)
	missing := filepath.Join(dir, "missing.jsonl")

	for _, c := range []struct {
		name string
		args []string
		code int
		want string // on stdout or stderr
	}{
		{"pretty-print", []string{a}, 0, "injected a.x#1"},
		{"filter", []string{"-event", "injected", a}, 0, "injected a.x#1"},
		{"stats", []string{"-stats", a}, 0, "injections:        1"},
		{"diff identical", []string{"-diff", a, same}, 0, "identical: 3 events"},
		{"unreadable", []string{missing}, 1, "missing.jsonl"},
		{"diff unreadable", []string{"-diff", a, missing}, 1, "missing.jsonl"},
		{"diff diverges", []string{"-diff", a, other}, 1, "traces differ (3 vs 3 events)"},
		{"nothing matches", []string{"-site", "b.y", a}, 1, "no events match the filters"},
		{"no file", nil, 2, "one trace file required"},
		{"two files", []string{a, same}, 2, "one trace file required"},
		{"diff one file", []string{"-diff", a}, 2, "-diff needs exactly two trace files"},
		{"diff three files", []string{"-diff", a, same, other}, 2, "-diff needs exactly two trace files"},
		{"unknown event", []string{"-event", "injection", a}, 2, `-event: unknown event type "injection"`},
		{"unknown flag", []string{"-bogus", a}, 2, "flag provided but not defined: -bogus"},
		{"negative round", []string{"-round", "-1", a}, 2, "-round: must not be negative"},
		{"zero max diffs", []string{"-diff", "-max-diffs", "0", a, other}, 2, "-max-diffs: must be positive"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String()+stderr.String(), c.want) {
			t.Errorf("%s: exit %d, want %d naming %q; stdout %q, stderr %q",
				c.name, code, c.code, c.want, stdout.String(), stderr.String())
		}
		if c.code == 2 && stdout.Len() != 0 {
			t.Errorf("%s: usage error printed to stdout: %q", c.name, stdout.String())
		}
	}
}
