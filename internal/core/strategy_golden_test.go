package core_test

// The strategy golden: every strategy a search accepts, not just
// full-feedback, pinned on four failures. Each cell is a header carrying the
// SHA-256 of the cell's JSONL trace and of its canonical report, followed by
// the search trajectory in the site_trajectories.golden line format, so a
// drift is located by round before anyone diffs a trace.
//
// Regenerate only after an intentional explorer change:
//
//	go test ./internal/core -run TestStrategyTrajectoriesGolden -update

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

const strategyGolden = "testdata/strategy_trajectories.golden"

var strategyGoldenIDs = []string{"f4", "f9", "f12", "f16"}

func TestStrategyTrajectoriesGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range strategyGoldenIDs {
		sc, ok := failures.ByID(id)
		if !ok {
			t.Fatalf("no scenario %s", id)
		}
		tgt := target(t, id)
		for _, st := range core.AllStrategies() {
			var buf bytes.Buffer
			sink := trace.NewWriter(&buf)
			rep := core.Reproduce(tgt, core.Options{Strategy: st, Seed: 1, MaxRounds: 200, Trace: sink})
			if err := sink.Err(); err != nil {
				t.Fatal(err)
			}
			// The golden predates Report.Reason and root ranks recorded by
			// every search. Reason is held to the trace's outcome line, whose
			// bytes the trace hash pins, and each round's RootRank to the
			// trajectory's rank= column; both are left out of the report
			// hash, which so keeps pinning every older report byte.
			jsonl := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			if last := jsonl[len(jsonl)-1]; rep.Reason == "" || !bytes.Contains(last, []byte(`"reason":"`+rep.Reason+`"`)) {
				t.Fatalf("%s %s: report ends %q, trace ends in %s", id, st, rep.Reason, last)
			}
			pinned := *rep
			pinned.Reason = ""
			pinned.RoundLog = slices.Clone(rep.RoundLog)
			for i := range pinned.RoundLog {
				pinned.RoundLog[i].RootRank = 0
			}
			canon, err := core.CanonicalReport(&pinned)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s %s trace=%x report=%x\n", id, st, sha256.Sum256(buf.Bytes()), sha256.Sum256(canon))
			b.WriteString(trajectory(sc, rep))
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(strategyGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("strategy golden updated: %s (%d bytes)", strategyGolden, len(got))
		return
	}
	want, err := os.ReadFile(strategyGolden)
	if err != nil {
		t.Fatalf("read strategy golden (run with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	cell := ""
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "== ") {
			cell = wantLines[i]
		}
		if gotLines[i] != wantLines[i] {
			t.Fatalf("strategy trajectories differ from %s at line %d (cell %q):\n- %s\n+ %s",
				strategyGolden, i+1, cell, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("strategy trajectories differ from %s in length: %d vs %d lines", strategyGolden, len(gotLines), len(wantLines))
}
