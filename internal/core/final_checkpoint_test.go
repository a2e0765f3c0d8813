package core_test

// Tests for the server-facing checkpoint extensions: the forced final
// checkpoint an interrupted search takes (so a drained daemon resumes
// from the exact round it stopped at, not the last periodic one), what the
// Options.Checkpoint sink sees and when, and concurrent Resume safety.

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/trace"
)

// TestInterruptOffBoundaryWritesFinalCheckpoint kills a search at a round
// that is NOT a multiple of CheckpointEvery. Without the forced final
// checkpoint none would exist at all (round 5, every 10); with it,
// the resumed run must continue from round 6 and the concatenated trace
// must be byte-identical to the uninterrupted run — the property the
// daemon's graceful drain depends on.
func TestInterruptOffBoundaryWritesFinalCheckpoint(t *testing.T) {
	tgt := target(t, "f4")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}

	var full trace.Memory
	optsFull := base
	optsFull.Trace = &full
	repFull := core.Reproduce(tgt, optsFull)
	if !repFull.Reproduced || repFull.Rounds <= 5 {
		t.Fatalf("fixture must reproduce after round 5; got reproduced=%v rounds=%d",
			repFull.Reproduced, repFull.Rounds)
	}

	var ck core.Checkpoint
	var part trace.Memory
	optsKill := base
	optsKill.Trace = &part
	optsKill.Checkpoint = keepLast(&ck)
	optsKill.CheckpointEvery = 10 // no periodic checkpoint lands before the kill
	optsKill.StopAfterRound = 5
	repKill := core.Reproduce(tgt, optsKill)
	if !repKill.Interrupted || repKill.Rounds != 5 {
		t.Fatalf("killed run: interrupted=%v rounds=%d, want true/5", repKill.Interrupted, repKill.Rounds)
	}

	var rest trace.Memory
	optsResume := base
	optsResume.Trace = &rest
	repRes, err := core.Resume(tgt, optsResume, ck)
	if err != nil {
		t.Fatalf("resume from forced final checkpoint: %v", err)
	}
	if !repRes.Reproduced {
		t.Fatal("resumed run did not reproduce")
	}

	got := append(lines(part.Events), lines(rest.Events)...)
	want := lines(full.Events)
	if len(got) != len(want) {
		t.Fatalf("concatenated trace has %d events, full run %d — resume did not continue from the interrupted round", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at event %d:\n- %s\n+ %s", i+1, want[i], got[i])
		}
	}
	if a, b := normalized(t, repFull), normalized(t, repRes); a != b {
		t.Fatalf("resumed report differs from uninterrupted report:\n%s\n%s", a, b)
	}
}

// TestInterruptInCombinedLogRunWritesFinalCheckpoint cancels the search in
// the middle of a round's FIRST combined-log extra run (RunsPerRound 2):
// the primary run has been judged unsatisfied, the round has not. Like
// every other interrupt it must leave the forced final checkpoint of the
// previous round — with nothing of the unjudged round in it, the injected
// instance not marked tried — so the resumed search re-executes exactly
// that round and ends in the uninterrupted run's report and trace.
func TestInterruptInCombinedLogRunWritesFinalCheckpoint(t *testing.T) {
	tgt := target(t, "f4")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, RunsPerRound: 2}

	var full trace.Memory
	optsFull := base
	optsFull.Trace = &full
	repFull := core.Reproduce(tgt, optsFull)
	if !repFull.Reproduced || repFull.InconclusiveRounds != 0 {
		t.Fatalf("fixture must reproduce without retries; got reproduced=%v inconclusive=%d",
			repFull.Reproduced, repFull.InconclusiveRounds)
	}
	// The workload runs once for the free run, once per round, and once
	// more after every unsatisfied injection. Find the first such round at
	// or past round 4 and the workload call that is its extra run.
	calls, victim := 1, 0
	for _, rd := range repFull.RoundLog {
		calls++
		if rd.Injected != nil && !rd.Satisfied {
			calls++
			if rd.N >= 4 {
				victim = rd.N
				break
			}
		}
	}
	if victim == 0 {
		t.Fatal("fixture has no unsatisfied injection at or past round 4")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := *tgt
	seen := 0
	wrapped.Workload = func(env *cluster.Env) {
		if seen++; seen == calls {
			cancel()
		}
		tgt.Workload(env)
	}
	var ck core.Checkpoint
	var part trace.Memory
	optsKill := base
	optsKill.Trace = &part
	optsKill.Context = ctx
	optsKill.Checkpoint = keepLast(&ck)
	optsKill.CheckpointEvery = 1000 // only the forced final checkpoint can land
	repKill := core.Reproduce(&wrapped, optsKill)
	if !repKill.Interrupted || repKill.Rounds != victim-1 {
		t.Fatalf("killed run: interrupted=%v rounds=%d, want true/%d", repKill.Interrupted, repKill.Rounds, victim-1)
	}
	if ck.Round != victim-1 {
		t.Fatalf("forced final checkpoint: round=%d, want %d", ck.Round, victim-1)
	}

	var rest trace.Memory
	optsResume := base
	optsResume.Trace = &rest
	repRes, err := core.Resume(tgt, optsResume, ck)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if a, b := normalized(t, repFull), normalized(t, repRes); a != b {
		t.Fatalf("resumed report differs from uninterrupted report:\n%s\n%s", a, b)
	}
	// The interrupted trace ends inside the victim round; cut it back to
	// the checkpointed round, as the server's journal recovery does.
	var got []string
	for i := range part.Events {
		if part.Events[i].Round < victim {
			got = append(got, trace.Line(&part.Events[i]))
		}
	}
	got = append(got, lines(rest.Events)...)
	want := lines(full.Events)
	if len(got) != len(want) {
		t.Fatalf("concatenated trace has %d events, full run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at event %d:\n- %s\n+ %s", i+1, want[i], got[i])
		}
	}
}

// TestCheckpointFlushRunsBeforeEveryWrite pins what an Options.Checkpoint
// sink sees (the server's is its periodic commit: trace flush, then
// checkpoint write): a call per interval and one for the forced final
// checkpoint, in order, each carrying its own round's state. The sink's
// error never stops the search; the first is kept on the report and the
// next interval calls again.
func TestCheckpointFlushRunsBeforeEveryWrite(t *testing.T) {
	tgt := target(t, "f4")
	var seen []int
	opts := core.Options{
		Strategy: core.FullFeedback, Seed: 1, Window: 1,
		CheckpointEvery: 2, StopAfterRound: 5,
		Checkpoint: func(ck core.Checkpoint) error {
			seen = append(seen, ck.Round)
			var payload struct{ Round int } // the state's "round"
			if err := json.Unmarshal(ck.State, &payload); err != nil || payload.Round != ck.Round {
				t.Errorf("checkpoint of round %d carries the state of round %d (err %v)", ck.Round, payload.Round, err)
			}
			return fmt.Errorf("sink failure at round %d", ck.Round)
		},
	}
	rep := core.Reproduce(tgt, opts)
	if !rep.Interrupted || rep.Rounds != 5 {
		t.Fatalf("run: interrupted=%v rounds=%d, want a kill after round 5 whatever the sink returns", rep.Interrupted, rep.Rounds)
	}
	// Rounds 2 and 4 are periodic; round 5 is the forced final one.
	if want := []int{2, 4, 5}; !slices.Equal(seen, want) {
		t.Fatalf("sink saw rounds %v, want %v", seen, want)
	}
	if rep.CheckpointError != "sink failure at round 2" {
		t.Fatalf("CheckpointError = %q, want the first failure", rep.CheckpointError)
	}
}

// TestConcurrentResumeSharesNothing resumes two distinct checkpoints of
// the SAME Target concurrently (run under -race): the read-only Target
// contract must hold through the Resume path exactly as it does for
// Reproduce, and each resumed search must produce the identical report an
// uninterrupted run of its options would.
func TestConcurrentResumeSharesNothing(t *testing.T) {
	tgt := target(t, "f4")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}

	full := core.Reproduce(tgt, base)
	if !full.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	wantCanon, err := core.CanonicalReport(full)
	if err != nil {
		t.Fatal(err)
	}

	// Two checkpoints of the same search, interrupted at different rounds.
	cks := make([]core.Checkpoint, 2)
	for i, stop := range []int{3, 5} {
		opts := base
		opts.Checkpoint = keepLast(&cks[i])
		opts.CheckpointEvery = 1
		opts.StopAfterRound = stop
		if rep := core.Reproduce(tgt, opts); !rep.Interrupted {
			t.Fatalf("checkpoint %d: run not interrupted", i)
		}
	}

	var wg sync.WaitGroup
	reports := make([]*core.Report, len(cks))
	errs := make([]error, len(cks))
	for i := range cks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = core.Resume(tgt, base, cks[i])
		}(i)
	}
	wg.Wait()
	for i := range cks {
		if errs[i] != nil {
			t.Fatalf("concurrent resume %d: %v", i, errs[i])
		}
		canon, err := core.CanonicalReport(reports[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != string(wantCanon) {
			t.Fatalf("concurrent resume %d report differs from uninterrupted run", i)
		}
	}
}
