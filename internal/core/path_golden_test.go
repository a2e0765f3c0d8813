package core_test

// Path mode's identities, pinned across binaries: a checkpoint written
// before path addresses became chain hashes (PR 17) resumes unchanged. (The
// path-mode trace goldens of the same vintage are TestPathGoldenTraces,
// conformance_test.go.)

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"anduril/internal/core"
	"anduril/internal/trace"
)

// TestPathResumeFromParentCheckpoint: testdata/f25.path.r40.ck.json was
// written by the parent commit's cmd/anduril (-failure f25 -addressing path
// -checkpoint … -stop-after 40), whose tried sets were recorded through a
// string-keyed path index. Resumed here, the search must emit exactly the
// trace suffix and final report of an uninterrupted run: the checkpoint
// format (v3) and the identities in it did not move.
func TestPathResumeFromParentCheckpoint(t *testing.T) {
	tgt := target(t, "f25")
	base := core.Options{Seed: 1, MaxRounds: 500, Addressing: core.AddrPath}

	var full trace.Memory
	optsFull := base
	optsFull.Trace = &full
	repFull := core.Reproduce(tgt, optsFull)
	if !repFull.Reproduced || repFull.Rounds <= 40 {
		t.Fatalf("f25 baseline: reproduced=%v in %d rounds; fixture must outlive the round-40 stop", repFull.Reproduced, repFull.Rounds)
	}

	const fixture = "testdata/f25.path.r40.ck.json"
	ck, err := core.LoadCheckpoint(fixture)
	if err != nil || ck.Round != 40 {
		t.Fatalf("load the parent's checkpoint: round %d, err %v", ck.Round, err)
	}
	// The file sink writes back the parent's bytes: neither the envelope
	// nor the payload moved.
	resaved := filepath.Join(t.TempDir(), "ck.json")
	if err := core.CheckpointFile(resaved)(ck); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(fixture)
	if got, err := os.ReadFile(resaved); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("checkpoint file re-saved as %d bytes (err %v), the parent wrote %d", len(got), err, len(want))
	}
	var rest trace.Memory
	optsResume := base
	optsResume.Trace = &rest
	repRes, err := core.Resume(tgt, optsResume, ck)
	if err != nil {
		t.Fatalf("resume from the parent's checkpoint: %v", err)
	}

	fullLines, restLines := lines(full.Events), lines(rest.Events)
	// The interrupted prefix is the free-run event plus rounds 1–40; the
	// resumed stream must be the rest of the full one, line for line.
	cut := len(fullLines) - len(restLines)
	if cut <= 0 {
		t.Fatalf("resumed trace has %d events, full run %d", len(restLines), len(fullLines))
	}
	if ev := full.Events[cut]; ev.Round != 41 {
		t.Fatalf("resumed trace starts at full-trace event %d (round %d), want the first event of round 41", cut+1, ev.Round)
	}
	for i, l := range restLines {
		if l != fullLines[cut+i] {
			t.Fatalf("resumed trace diverges at event %d:\n- %s\n+ %s", cut+i+1, fullLines[cut+i], l)
		}
	}
	if got, want := normalized(t, repRes), normalized(t, repFull); got != want {
		t.Fatalf("resumed report differs from the uninterrupted one:\n- %s\n+ %s", want, got)
	}
}
