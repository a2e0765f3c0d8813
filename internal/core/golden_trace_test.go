package core_test

// Golden-trace regression: the explorer's structured trace for the
// quickstart target (f3, ZK-4203) under a fixed seed must match the
// committed golden file byte for byte. This pins down the whole search
// trajectory — observables, site ranking, window growth, feedback deltas,
// outcome — not just the final report, proving end-to-end determinism.
//
// Regenerate after an intentional explorer change with:
//
//	go test ./internal/core -run TestGoldenTraceQuickstart -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

const goldenTracePath = "testdata/quickstart.trace.jsonl"

// quickstartTrace runs the quickstart reproduction (examples/quickstart:
// f3 with seed 1 and default options) with a JSONL sink attached.
func quickstartTrace(t *testing.T) []byte {
	t.Helper()
	sc, ok := failures.ByID("f3")
	if !ok {
		t.Fatal("no quickstart failure f3")
	}
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewWriter(&buf)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, Trace: sink})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced {
		t.Fatalf("quickstart target not reproduced in %d rounds", rep.Rounds)
	}
	return buf.Bytes()
}

func TestGoldenTraceQuickstart(t *testing.T) {
	got := quickstartTrace(t)

	compareGolden(t, goldenTracePath, got)
}

// compareGolden holds a trace to the golden file at path — or, under
// -update, rewrites the file. On a mismatch both streams are decoded for a
// readable event-level diff before failing.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden trace (run with -update to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotEv, gerr := trace.ReadAll(bytes.NewReader(got))
	wantEv, werr := trace.ReadAll(bytes.NewReader(want))
	if gerr != nil || werr != nil {
		t.Fatalf("trace differs from golden and does not decode: got err %v, want err %v", gerr, werr)
	}
	for _, d := range trace.Diff(wantEv, gotEv, 10) {
		t.Error(d)
	}
	t.Fatalf("trace differs from %s (%d vs %d events); rerun with -update if the change is intentional",
		path, len(gotEv), len(wantEv))
}

// The trace must be identical across repeated in-process runs: no map
// iteration order, scheduling, or wall clock may leak into events.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	a := quickstartTrace(t)
	b := quickstartTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of the same (target, options) produced different traces")
	}
}

// A trace stream is well-formed: starts with free_run, ends with outcome,
// decodes cleanly, and its aggregate stats agree with the report.
func TestTraceWellFormed(t *testing.T) {
	sc, _ := failures.ByID("f17")
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	mem := &trace.Memory{}
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500, Trace: mem})
	if len(mem.Events) < 3 {
		t.Fatalf("only %d events", len(mem.Events))
	}
	if mem.Events[0].Type != trace.FreeRun {
		t.Fatalf("first event %s, want free_run", mem.Events[0].Type)
	}
	last := mem.Events[len(mem.Events)-1]
	if last.Type != trace.Outcome {
		t.Fatalf("last event %s, want outcome", last.Type)
	}
	if last.Reproduced != rep.Reproduced || last.Rounds != rep.Rounds {
		t.Fatalf("outcome (reproduced=%v rounds=%d) disagrees with report (%v, %d)",
			last.Reproduced, last.Rounds, rep.Reproduced, rep.Rounds)
	}
	if rep.Reproduced && (last.Site != rep.Script.Site || last.Occ != rep.Script.Occurrence ||
		last.ScriptSeed != rep.ScriptSeed || last.Reason != trace.ReasonReproduced) {
		t.Fatalf("outcome script %s#%d seed %d reason %s disagrees with report %v seed %d",
			last.Site, last.Occ, last.ScriptSeed, last.Reason, *rep.Script, rep.ScriptSeed)
	}
	stats := mem.Stats()
	if stats.Rounds != rep.Rounds {
		t.Fatalf("stats.Rounds=%d, report.Rounds=%d", stats.Rounds, rep.Rounds)
	}
	if stats.Injections == 0 || !stats.Reproduced {
		t.Fatalf("stats: %+v", stats)
	}
	// One free_run event, one outcome, and a decision per non-empty round.
	if stats.Events[trace.FreeRun] != 1 || stats.Events[trace.Outcome] != 1 {
		t.Fatalf("event counts: %v", stats.Events)
	}
}

// The terminal outcome distinguishes the guards: an unreproducible search
// under a tiny round cap reports round-cap; an exhausted queue reports
// fault-space exhaustion.
func TestTraceOutcomeReasons(t *testing.T) {
	sc, _ := failures.ByID("f17")
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	mem := &trace.Memory{}
	core.Reproduce(tgt, core.Options{Strategy: core.Exhaustive, Seed: 1, MaxRounds: 1, Trace: mem})
	last := mem.Events[len(mem.Events)-1]
	if last.Type != trace.Outcome || last.Reproduced {
		t.Fatalf("outcome: %+v", last)
	}
	if last.Reason != trace.ReasonRoundCap {
		t.Fatalf("reason %q, want %q", last.Reason, trace.ReasonRoundCap)
	}

	// The CrashTuner queue for a failure without meta-info sites can drain
	// before the cap: the outcome must say exhausted, not round-cap.
	mem = &trace.Memory{}
	rep := core.Reproduce(tgt, core.Options{Strategy: core.CrashTuner, Seed: 1, MaxRounds: 500, Trace: mem})
	last = mem.Events[len(mem.Events)-1]
	if !rep.Reproduced && rep.Rounds < 500 && last.Reason != trace.ReasonExhausted {
		t.Fatalf("reason %q after %d rounds, want %q", last.Reason, rep.Rounds, trace.ReasonExhausted)
	}
}
