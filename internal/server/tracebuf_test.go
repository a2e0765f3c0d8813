package server

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"anduril/internal/trace"
)

// encodeLine renders an event exactly as the trace buffer stores it.
func encodeLine(ev trace.Event) []byte {
	return []byte(trace.Line(&ev) + "\n")
}

func traceEvents() []trace.Event {
	return []trace.Event{
		{Type: trace.FreeRun, Target: "f4", Strategy: "full-feedback", Seed: 1},
		{Type: trace.RoundStart, Round: 1, Window: 10},
		{Type: trace.WindowGrow, Round: 1, From: 10, To: 20},
		{Type: trace.RoundStart, Round: 2, Window: 20},
		{Type: trace.WindowGrow, Round: 2, From: 20, To: 40},
		{Type: trace.RoundStart, Round: 3, Window: 40},
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

// WriteFile writes every line emitted so far, replacing whatever file was
// there — a partial trace an older daemon's journal left, say — whole.
func TestTraceWriteFileReplacesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), traceFile)
	if err := os.WriteFile(path, []byte("a partial trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tb := newTraceBuffer()
	events := traceEvents()
	for i := range events {
		tb.Emit(&events[i])
	}
	if err := tb.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), concatLines(events); !bytes.Equal(got, want) {
		t.Fatalf("written trace:\n%s\nwant:\n%s", got, want)
	}
	if got := tb.Snapshot(); !bytes.Equal(got, concatLines(events)) {
		t.Fatalf("snapshot after the write:\n%s", got)
	}
}

// An event that does not encode (a NaN priority) is a line the trace file
// can never hold: the completion commit's write fails and writes nothing.
func TestWALEncodeErrorFailsFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), traceFile)
	tb := newTraceBuffer()
	events := traceEvents()
	tb.Emit(&events[0])
	tb.Emit(&trace.Event{Type: trace.Feedback, Round: 1,
		Deltas: []trace.SiteDelta{{Site: "s", Before: 1, After: trace.Float(math.NaN())}}})
	tb.Emit(&events[1])
	if err := tb.WriteFile(path); err == nil {
		t.Fatal("WriteFile wrote a trace with an event that did not encode")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file exists after a failed write (stat: %v)", err)
	}
}

// A follower sees the snapshot plus every subsequent event, in order,
// with no gap and no duplicate, and its stream ends when the buffer
// closes.
func TestWALSubscribe(t *testing.T) {
	events := traceEvents()
	tb := newTraceBuffer()
	for i := range events[:3] {
		tb.Emit(&events[i])
	}
	snapshot, lines, cancel, err := tb.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if !bytes.Equal(snapshot, concatLines(events[:3])) {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", snapshot, concatLines(events[:3]))
	}
	for i := range events[3:] {
		tb.Emit(&events[3+i])
	}
	tb.Close()
	got := append([]byte(nil), snapshot...)
	for line := range lines {
		got = append(got, line...)
	}
	if !bytes.Equal(got, concatLines(events)) {
		t.Fatalf("followed stream:\n%s\nwant:\n%s", got, concatLines(events))
	}
	if _, _, _, err := tb.Subscribe(); err == nil {
		t.Fatal("subscribed to a closed trace")
	}
}
