package logging

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

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

// renderLineFmt is RenderLine written with fmt and time.Format, the oracle
// the appending renderer is held to.
func renderLineFmt(r Record) string {
	t := baseWall.Add(time.Duration(r.Time))
	return fmt.Sprintf("%s,%03d [%s] %s %s",
		t.Format("2006-01-02 15:04:05"), t.Nanosecond()/1e6, r.Thread, r.Level, r.Msg)
}

// FuzzRenderLine: at any time of a run's first day, with any thread, level
// and message, RenderLine and Render write what fmt writes; and where the
// line can be read back — a known level, no newline, no ']' in the thread —
// the rendered log parses back to its own Entries.
func FuzzRenderLine(f *testing.F) {
	f.Add(int64(0), "main", int8(1), "ok")
	f.Add(int64(7*des.Millisecond+999_999), "dn-1", int8(3), "saw [x] ERROR in payload")
	f.Add(int64(24*time.Hour-1), "node 2", int8(0), "")
	f.Add(int64(-1), "", int8(-2), "two\nlines")
	f.Add(int64(61*time.Second+5), "rs[1]", int8(9), "LEVEL(9)")
	f.Fuzz(func(t *testing.T, at int64, thread string, level int8, msg string) {
		const day = int64(24 * time.Hour)
		at = (at%day + day) % day
		r := Record{Time: des.Time(at), Thread: thread, Level: Level(level), Msg: msg}
		if got, want := RenderLine(r), renderLineFmt(r); got != want {
			t.Fatalf("RenderLine(%+v) = %q, fmt %q", r, got, want)
		}
		sim := des.New(1)
		lg := New(sim)
		sim.Schedule("tick", 0, func() { lg.Infof("tick") })
		sim.Schedule(thread, r.Time, func() { lg.emit(r.Level, "%s", msg) })
		sim.Run(des.Time(day))
		if thread == "" {
			r.Thread = "main"
		}
		first := Record{Thread: "tick", Level: Info, Msg: "tick"}
		if got, want := lg.Render(), renderLineFmt(first)+"\n"+renderLineFmt(r)+"\n"; got != want {
			t.Fatalf("Render = %q, fmt %q", got, want)
		}
		if r.Level < Debug || r.Level > Error || strings.ContainsAny(msg, "\n") || strings.ContainsAny(thread, "]\n") {
			return
		}
		if got := Parse(lg.Render()); !slices.Equal(got, lg.Entries()) {
			t.Fatalf("parsed back %+v, entries %+v", got, lg.Entries())
		}
	})
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

// nodeName and port stand just outside the types emit formats itself: a
// named string and a named int whose String method fmt must call.
type nodeName string

type port int

func (p port) String() string { return fmt.Sprintf("port<%d>", int(p)) }

// fuzzOperands are the operand lists FuzzEmitKeysWhatItRenders pairs with a
// fuzzed format: the types the targets log, alone and mixed, with arities
// that match few formats exactly, and the operands at each edge of emit's
// own formatter.
func fuzzOperands(n int64, s string) [][]interface{} {
	return [][]interface{}{
		nil,
		{int(n)},
		{n, s},
		{s},
		{s, int(n), s},
		{int32(n), uint64(n)},
		{s, int32(n), uint64(n), n},
		{nodeName(s), port(n)},
		{s, nodeName(s), int(n), port(n)},
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

// TestWarmEmitDoesNotAllocate: a message the log has rendered before is
// looked up, not rebuilt — no string, no sanitize pass, no intern lookup.
// The record slice has room, so the emit itself allocates nothing.
func TestWarmEmitDoesNotAllocate(t *testing.T) {
	lg := New(des.New(1))
	lg.Infof("node %s synced", "dn-1")
	if allocs := testing.AllocsPerRun(100, func() { lg.Infof("node %s synced", "dn-1") }); allocs != 0 {
		t.Fatalf("a warm emit allocated %.1f times", allocs)
	}
}

// emitRun logs a run whose messages repeat, vary in digits only, vary in
// hex letters and go through fmt, so a recycled log meets every kind of
// form it kept.
func emitRun(lg *Log, run int) {
	for i := 0; i < 40; i++ {
		lg.Infof("node %s synced %d entries", "dn-1", i%3+run)
		lg.Warnf("zxid=0x%x epoch %d", int64(run*7+i%2), run)
		lg.Debugf("peer %v down: %s", port(i%2), os.ErrNotExist)
		lg.Errorf("constant record")
	}
}

// TestRecycledLogMatchesFresh: a log Reset between runs keeps its forms,
// and the runs it logs read exactly as each would in a fresh log.
func TestRecycledLogMatchesFresh(t *testing.T) {
	recycled := New(des.New(1))
	for run := 0; run < 5; run++ {
		recycled.Reset()
		emitRun(recycled, run)
		fresh := New(des.New(1))
		emitRun(fresh, run)
		got, want := recycled.Entries(), fresh.Entries()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d records recycled, %d fresh", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] || got[i].ID() != want[i].ID() {
				t.Fatalf("run %d record %d: recycled %+v (id %d), fresh %+v (id %d)",
					run, i, got[i], got[i].ID(), want[i], want[i].ID())
			}
		}
	}
}

// TestResetBoundsForms: whatever the log has rendered, Reset leaves it
// holding no more forms than records it has room for, and a record emitted
// after the table was emptied is keyed as before.
func TestResetBoundsForms(t *testing.T) {
	lg := New(des.New(1))
	for run := 0; run < 20; run++ {
		for i := 0; i < 100; i++ {
			lg.Infof("value %x", run*100+i) // a new form for most records
		}
		lg.Reset()
		if len(lg.forms) > cap(lg.entries) {
			t.Fatalf("run %d: %d forms kept for %d record slots", run, len(lg.forms), cap(lg.entries))
		}
	}
	lg.Infof("value %x", 0xab)
	if e := lg.Entries()[0]; e.ID() != SanitizeID("value ab") {
		t.Fatalf("after the table was emptied %+v is keyed %d", e, e.ID())
	}
}
