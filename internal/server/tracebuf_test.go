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
	if got, _, _ := tb.Read(0); !bytes.Equal(got, concatLines(events)) {
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
	tb.Emit(&trace.Event{Type: trace.RoundStart, Round: 1,
		Top: []trace.SiteRank{{Site: "s", F: trace.Float(math.NaN())}}})
	tb.Emit(&events[1])
	if err := tb.WriteFile(path); err == nil {
		t.Fatal("WriteFile wrote a trace with an event that did not encode")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file exists after a failed write (stat: %v)", err)
	}
}

// A follower that reads nothing while 5 000 events are emitted still gets
// the snapshot plus every later line, in order with no gap and no
// duplicate, and sees the end only once the log closes. So do followers
// that read while the events are emitted: none misses a wake-up.
func TestTraceLaggingFollowerGetsEveryLine(t *testing.T) {
	events := traceEvents()
	for round := 1; len(events) < 5003; round++ {
		events = append(events, trace.Event{Type: trace.RoundStart, Round: round, Window: round})
	}
	tb := newTraceBuffer()
	defer tb.Close() // on a failure, so the followers end too
	followed := make(chan []byte, 3)
	for range cap(followed) {
		go func() {
			var got []byte
			for {
				p, closed, more := tb.Read(len(got))
				got = append(got, p...)
				if closed {
					followed <- got
					return
				}
				if more != nil {
					<-more
				}
			}
		}()
	}
	for i := range events[:3] {
		tb.Emit(&events[i])
	}
	snapshot, closed, _ := tb.Read(0)
	if closed || !bytes.Equal(snapshot, concatLines(events[:3])) {
		t.Fatalf("snapshot (closed %v):\n%s\nwant:\n%s", closed, snapshot, concatLines(events[:3]))
	}
	for i := range events[3:] {
		tb.Emit(&events[3+i])
	}
	got := append([]byte(nil), snapshot...)
	p, closed, more := tb.Read(len(got))
	got = append(got, p...)
	if closed || more != nil {
		t.Fatalf("read after 5 000 events: closed %v, wait channel %v; want neither", closed, more)
	}
	if p, closed, more = tb.Read(len(got)); len(p) != 0 || closed || more == nil {
		t.Fatalf("read at the end of an open log: %d bytes, closed %v; want a wait", len(p), closed)
	}
	tb.Close()
	<-more
	if p, closed, _ = tb.Read(len(got)); len(p) != 0 || !closed {
		t.Fatalf("read after Close: %d bytes, closed %v; want none and closed", len(p), closed)
	}
	if !bytes.Equal(got, concatLines(events)) {
		t.Fatalf("lagging follower's stream: %d bytes, want %d", len(got), len(concatLines(events)))
	}
	for range cap(followed) {
		if got := <-followed; !bytes.Equal(got, concatLines(events)) {
			t.Fatalf("live follower's stream: %d bytes, want %d", len(got), len(concatLines(events)))
		}
	}
}
