package core_test

// The strategy golden: every strategy a search accepts, not just
// full-feedback, pinned on four failures, one section per (failure,
// strategy) in the dataset golden's format (section).

import (
	"bytes"
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
			jsonl := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			if last := jsonl[len(jsonl)-1]; rep.Reason == "" || !bytes.Contains(last, []byte(`"reason":"`+rep.Reason+`"`)) {
				t.Fatalf("%s %s: report ends %q, trace ends in %s", id, st, rep.Reason, last)
			}
			sec, err := section(sc, string(st), buf.Bytes(), rep)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(sec)
		}
	}
	compareText(t, strategyGolden, b.String())
}
