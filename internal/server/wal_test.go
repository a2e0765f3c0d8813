package server

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"anduril/internal/trace"
)

// encodeLine renders an event exactly as the WAL stores it.
func encodeLine(ev trace.Event) []byte {
	return []byte(trace.Line(&ev) + "\n")
}

func walEvents() []trace.Event {
	return []trace.Event{
		{Type: trace.FreeRun, Target: "f4", Strategy: "full-feedback", Seed: 1},
		{Type: trace.RoundStart, Round: 1, Window: 10},
		{Type: trace.Decision, Round: 1},
		{Type: trace.RoundStart, Round: 2, Window: 10},
		{Type: trace.Decision, Round: 2},
		{Type: trace.RoundStart, Round: 3, Window: 10},
		{Type: trace.Outcome, Reproduced: true, Rounds: 3, Reason: trace.ReasonReproduced},
	}
}

func concatLines(events []trace.Event) []byte {
	var out []byte
	for _, ev := range events {
		out = append(out, encodeLine(ev)...)
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// Flush(n) commits exactly the rounds the upcoming checkpoint admits;
// events of an uncommitted later round must stay off disk so that an
// interrupt or kill never leaves the file ahead of what the resumed
// search will re-emit.
func TestWALFlushCommitsOnlyCheckpointedRounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), traceFile)
	w, err := openWAL(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	events := walEvents()
	for i := range events[:5] { // free run + rounds 1,2
		w.Emit(&events[i])
	}
	if err := w.Flush(1); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), concatLines(events[:3]); !bytes.Equal(got, want) {
		t.Fatalf("after Flush(1):\n%s\nwant:\n%s", got, want)
	}
	w.Emit(&events[5]) // round 3 starts
	if err := w.Flush(2); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), concatLines(events[:5]); !bytes.Equal(got, want) {
		t.Fatalf("after Flush(2):\n%s\nwant:\n%s", got, want)
	}
	w.Emit(&events[6]) // outcome
	if err := w.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), concatLines(events); !bytes.Equal(got, want) {
		t.Fatalf("after FlushAll:\n%s\nwant:\n%s", got, want)
	}
}

// An event that does not encode (a NaN priority) is a line the journal can
// never hold: the flush that would commit its round fails and writes
// nothing, so the checkpoint after it is not written either.
func TestWALEncodeErrorFailsFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), traceFile)
	w, err := openWAL(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	events := walEvents()
	w.Emit(&events[0])
	w.Emit(&trace.Event{Type: trace.Feedback, Round: 1,
		Deltas: []trace.SiteDelta{{Site: "s", Before: 1, After: trace.Float(math.NaN())}}})
	w.Emit(&events[1])
	if err := w.Flush(1); err == nil {
		t.Fatal("Flush committed a round with an event that did not encode")
	}
	if err := w.FlushAll(); err == nil {
		t.Fatal("FlushAll committed a trace with an event that did not encode")
	}
	if got := readFile(t, path); len(got) != 0 {
		t.Fatalf("journal holds %q after failed flushes, want nothing", got)
	}
}

// Recovery must trim the journal back to the surviving checkpoint's
// round: later rounds, a stray outcome, and a torn final line are all
// artifacts of dying with the WAL ahead of the checkpoint, and the
// resumed search re-emits their contents byte-identically.
func TestWALRecoveryTrims(t *testing.T) {
	events := walEvents()
	full := concatLines(events)
	cases := []struct {
		name    string
		raw     []byte
		ckRound int
		haveCk  bool
		want    []byte
	}{
		{"no checkpoint starts fresh", full, 0, false, nil},
		{"ahead of checkpoint", full, 2, true, concatLines(events[:5])},
		{"outcome trimmed", full, 3, true, concatLines(events[:6])},
		{"exactly at checkpoint", concatLines(events[:5]), 2, true, concatLines(events[:5])},
		{"torn tail", append(concatLines(events[:3]), []byte(`{"event":"round","rou`)...), 1, true, concatLines(events[:3])},
		{"garbage line", append(concatLines(events[:3]), []byte("not json at all\n")...), 9, true, concatLines(events[:3])},
		{"empty file", nil, 5, true, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), traceFile)
			if err := os.WriteFile(path, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := openWAL(path, c.ckRound, c.haveCk)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if got := readFile(t, path); !bytes.Equal(got, c.want) {
				t.Fatalf("recovered file:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

// After recovery the resumed search appends its suffix; the file must
// concatenate cleanly.
func TestWALAppendsAfterRecovery(t *testing.T) {
	events := walEvents()
	path := filepath.Join(t.TempDir(), traceFile)
	if err := os.WriteFile(path, concatLines(events), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(path, 2, true) // trims rounds 3+ and the outcome
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := range events[5:] { // re-emit round 3 and the outcome
		w.Emit(&events[5+i])
	}
	if err := w.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, concatLines(events)) {
		t.Fatalf("resumed file:\n%s\nwant the full trace:\n%s", got, concatLines(events))
	}
}

// A follower sees the snapshot plus every subsequent event, in order,
// with no gap and no duplicate, and its stream ends when the WAL closes.
func TestWALSubscribe(t *testing.T) {
	events := walEvents()
	path := filepath.Join(t.TempDir(), traceFile)
	w, err := openWAL(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events[:3] {
		w.Emit(&events[i])
	}
	snapshot, lines, cancel, err := w.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if !bytes.Equal(snapshot, concatLines(events[:3])) {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", snapshot, concatLines(events[:3]))
	}
	for i := range events[3:] {
		w.Emit(&events[3+i])
	}
	w.Close()
	got := append([]byte(nil), snapshot...)
	for line := range lines {
		got = append(got, line...)
	}
	if !bytes.Equal(got, concatLines(events)) {
		t.Fatalf("followed stream:\n%s\nwant:\n%s", got, concatLines(events))
	}
}

func TestWALReset(t *testing.T) {
	events := walEvents()
	path := filepath.Join(t.TempDir(), traceFile)
	w, err := openWAL(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := range events[:4] {
		w.Emit(&events[i])
	}
	if err := w.Flush(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); len(got) != 0 {
		t.Fatalf("file not empty after Reset: %s", got)
	}
	w.Emit(&events[0])
	if err := w.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, encodeLine(events[0])) {
		t.Fatalf("post-Reset file:\n%s", got)
	}
}
