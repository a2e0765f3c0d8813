package logging

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"anduril/internal/des"
)

func TestEmitCapturesThreadAndSeq(t *testing.T) {
	sim := des.New(1)
	lg := New(sim)
	sim.Schedule("wal-consumer", 5, func() { lg.Infof("sync %d entries", 3) })
	sim.Schedule("roller", 10, func() { lg.Warnf("roll requested") })
	sim.Run(des.Second)

	recs := lg.Entries()
	if len(recs) != 2 {
		t.Fatalf("records=%d, want 2", len(recs))
	}
	if recs[0].Thread != "wal-consumer" || recs[1].Thread != "roller" {
		t.Fatalf("threads: %q %q", recs[0].Thread, recs[1].Thread)
	}
	if recs[0].Msg != "sync 3 entries" {
		t.Fatalf("msg=%q", recs[0].Msg)
	}
	if lg.Pos() != 2 {
		t.Fatalf("Pos=%d", lg.Pos())
	}
}

func TestMainThreadOutsideEvents(t *testing.T) {
	lg := New(des.New(1))
	lg.Errorf("boot failed")
	if got := lg.Entries()[0].Thread; got != "main" {
		t.Fatalf("thread=%q, want main", got)
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	sim := des.New(1)
	lg := New(sim)
	sim.Schedule("dn-1", 7*des.Millisecond, func() {
		lg.Errorf("failed to receive block %s: %s", "blk_1", "IOError")
	})
	sim.Run(des.Second)

	text := lg.Render()
	if !strings.Contains(text, "[dn-1] ERROR failed to receive block blk_1: IOError") {
		t.Fatalf("rendered: %q", text)
	}
	entries := Parse(text)
	if len(entries) != 1 {
		t.Fatalf("parsed %d entries", len(entries))
	}
	e := entries[0]
	if e.Thread != "dn-1" || e.Level != Error || e.Msg != "failed to receive block blk_1: IOError" {
		t.Fatalf("entry: %+v", e)
	}
}

func TestParseSkipsNoise(t *testing.T) {
	text := "garbage line\n" +
		"\tat org.apache.stack.Trace(Frame.java:10)\n" +
		"2024-11-04 09:00:00,001 [main] INFO ok\n"
	entries := Parse(text)
	if len(entries) != 1 || entries[0].Msg != "ok" {
		t.Fatalf("entries: %+v", entries)
	}
}

func TestParseLevels(t *testing.T) {
	for _, lvl := range []Level{Debug, Info, Warn, Error} {
		got, ok := ParseLevel(lvl.String())
		if !ok || got != lvl {
			t.Fatalf("round trip %v -> %v (%v)", lvl, got, ok)
		}
	}
	if _, ok := ParseLevel("TRACE"); ok {
		t.Fatal("unknown level accepted")
	}
}

func TestEntriesMatchesRenderParse(t *testing.T) {
	sim := des.New(2)
	lg := New(sim)
	sim.Schedule("a", 1, func() { lg.Infof("one") })
	sim.Schedule("b", 2, func() { lg.Warnf("two %s", "x") })
	sim.Run(des.Second)

	direct := lg.Entries()
	parsed := Parse(lg.Render())
	if len(direct) != len(parsed) {
		t.Fatalf("len %d vs %d", len(direct), len(parsed))
	}
	for i := range direct {
		if direct[i] != parsed[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, direct[i], parsed[i])
		}
	}
}

func TestParseLineBracketedThread(t *testing.T) {
	cases := []struct {
		line   string
		thread string
		msg    string
	}{
		{"2024-11-04 09:00:00,001 [node[1]] INFO joined ring", "node[1]", "joined ring"},
		{"2024-11-04 09:00:00,001 [pool-1-thread-2] WARN queue full", "pool-1-thread-2", "queue full"},
		{"2024-11-04 09:00:00,001 [rs[a][b]] ERROR split failed", "rs[a][b]", "split failed"},
		{"2024-11-04 09:00:00,001 [w] INFO saw [x] ERROR in payload", "w", "saw [x] ERROR in payload"},
	}
	for _, c := range cases {
		e, ok := ParseLine(c.line)
		if !ok {
			t.Fatalf("ParseLine(%q) failed", c.line)
		}
		if e.Thread != c.thread || e.Msg != c.msg {
			t.Fatalf("ParseLine(%q) = %+v, want thread %q msg %q", c.line, e, c.thread, c.msg)
		}
	}
	if _, ok := ParseLine("2024-11-04 09:00:00,001 [node1 INFO no close"); ok {
		t.Fatal("accepted line whose bracket never closes")
	}
	if _, ok := ParseLine("2024-11-04 09:00:00,001 [node[1]] NOTALEVEL msg"); ok {
		t.Fatal("accepted line with no valid level after any bracket")
	}
}

// Property: thread names containing brackets (Log4j's "node[1]" style)
// survive a render/parse round trip together with arbitrary messages.
func TestRoundTripBracketedThreadProperty(t *testing.T) {
	f := func(base uint8, idx uint8, raw string) bool {
		thread := strings.Repeat("n", int(base%3)+1) + "[" + string(rune('0'+idx%10)) + "]"
		msg := strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, raw)
		if msg == "" {
			msg = "x"
		}
		sim := des.New(4)
		lg := New(sim)
		sim.Schedule(thread, 1, func() { lg.Infof("%s", msg) })
		sim.Run(des.Second)
		parsed := Parse(lg.Render())
		return len(parsed) == 1 && parsed[0].Msg == msg && parsed[0].Thread == thread
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any message without newlines survives a render/parse round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw string) bool {
		msg := strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, raw)
		sim := des.New(3)
		lg := New(sim)
		sim.Schedule("t", 1, func() { lg.Infof("%s", msg) })
		sim.Run(des.Second)
		parsed := Parse(lg.Render())
		if msg == "" {
			return true // empty messages render to a trailing space-free line; fine either way
		}
		return len(parsed) == 1 && parsed[0].Msg == msg && parsed[0].Thread == "t"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// digitRuns is the sanitizer's specification, sharing no code with it.
var digitRuns = regexp.MustCompile(`[0-9]+`)

// checkKeyed holds one emitted record to the key-once contract: the message
// is what fmt renders, and the id stored with it is the id of that message,
// standing for its sanitized form.
func checkKeyed(t *testing.T, lg *Log, format string, args ...interface{}) {
	t.Helper()
	lg.Reset()
	lg.Infof(format, args...)
	e := lg.Entries()[0]
	if want := fmt.Sprintf(format, args...); e.Msg != want {
		t.Fatalf("Infof(%q, %v) rendered %q, fmt.Sprintf %q", format, args, e.Msg, want)
	}
	if e.ID() != SanitizeID(e.Msg) {
		t.Fatalf("%q carries id %d, SanitizeID says %d", e.Msg, e.ID(), SanitizeID(e.Msg))
	}
	if got, want := Canonical(e.ID()), digitRuns.ReplaceAllString(e.Msg, "#"); got != want {
		t.Fatalf("%q is keyed as %q, want %q", e.Msg, got, want)
	}
	if by := (Entry{Thread: e.Thread, Level: e.Level, Msg: e.Msg}); by.ID() != e.ID() {
		t.Fatalf("hand-built entry for %q has id %d, the emitted one %d", e.Msg, by.ID(), e.ID())
	}
}

type stringer struct{ n int }

func (s stringer) String() string { return fmt.Sprintf("s<%d>", s.n) }

// fuzzOperands are the operand lists FuzzEmitKeysWhatItRenders pairs with a
// fuzzed format: the types the targets log, alone and mixed, with arities
// that match few formats exactly.
func fuzzOperands(n int64, s string) [][]interface{} {
	return [][]interface{}{
		nil,
		{int(n)},
		{n, s},
		{s},
		{s, int(n), s},
		{uint16(n), float64(n) / 3, n%2 == 0},
		{[]byte(s), []string{s, s}, map[string]int{s: int(n)}},
		{fmt.Errorf("wrapped %d: %w", n, os.ErrNotExist), stringer{int(n)}, &stringer{int(n)}, nil},
		{des.Time(n), Level(n % 5), struct{ A, B int }{int(n), 2}},
	}
}

func FuzzEmitKeysWhatItRenders(f *testing.F) {
	for _, format := range []string{
		"", "plain", "100%", "%d", "%s", "%v", "%+v", "%#v", "%T", "%q", "%x", "%X", "%08.3f", "%-6d|", "%+d",
		"% d", "%6.2f%%", "%[2]d %[1]s", "%*d", "%!", "%z", "%d %d %d %d %d", "node %s: synced %d entries in %dms",
		"zxid=0x%x epoch %d", "%s %s", "%c%U", "%e %g", "%t", "%p", "%5s|%-5s|%.2s", "%d%%", "trailing %",
	} {
		f.Add(format, int64(42), "dn-1")
		f.Add(format, int64(-7), "blk_1073741825")
	}
	f.Fuzz(func(t *testing.T, format string, n int64, s string) {
		lg := New(des.New(1))
		for _, args := range fuzzOperands(n, s) {
			checkKeyed(t, lg, format, args...)
		}
	})
}

// TestEntriesIsTheLogItself: Entries hands out the log's own records — no
// copy, no allocation — capped so that a caller's append cannot reach the
// log, and Reset recycles exactly that memory.
func TestEntriesIsTheLogItself(t *testing.T) {
	lg := New(des.New(1))
	for i := 0; i < 10; i++ {
		lg.Infof("record %d", i)
	}
	a, b := lg.Entries(), lg.Entries()
	if len(a) != 10 || &a[0] != &b[0] {
		t.Fatalf("two Entries calls returned different memory (len %d)", len(a))
	}
	if allocs := testing.AllocsPerRun(100, func() { lg.Entries() }); allocs != 0 {
		t.Fatalf("Entries allocated %.1f times per call", allocs)
	}
	_ = append(a, Entry{Msg: "intruder"})
	lg.Infof("record %d", 10)
	if got := lg.Entries()[10].Msg; got != "record 10" {
		t.Fatalf("a caller's append reached the log: record 10 is %q", got)
	}
	lg.Reset()
	if lg.Pos() != 0 || len(lg.Entries()) != 0 || lg.Render() != "" {
		t.Fatalf("Reset left %d records", lg.Pos())
	}
	lg.Warnf("after reset")
	if c := lg.Entries(); &c[0] != &a[0] || a[0].Msg != "after reset" {
		t.Fatal("Reset did not recycle the log's memory")
	}
	if e := lg.Entries()[0]; e.Level != Warn || e.Msg != "after reset" {
		t.Fatalf("first record after Reset: %+v", e)
	}
}

// TestInternedFormsCountsForms: the exported size of the intern table moves
// by one per new sanitized form and not at all for a known one — digits
// never make a form, a–f of a %x operand do.
func TestInternedFormsCountsForms(t *testing.T) {
	SanitizeID("interned-forms probe 1")
	before := InternedForms()
	SanitizeID("interned-forms probe 22")
	SanitizeID(fmt.Sprintf("interned-forms probe %x", 0x11))
	if got := InternedForms(); got != before {
		t.Fatalf("digit-only variants grew the table from %d to %d", before, got)
	}
	SanitizeID(fmt.Sprintf("interned-forms probe %x", 0xab))
	SanitizeID(fmt.Sprintf("interned-forms probe %x", 0xcd))
	if got := InternedForms(); got != before+2 {
		t.Fatalf("two hex spellings grew the table from %d to %d, want +2", before, got)
	}
}
