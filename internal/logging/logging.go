// Package logging provides the run logger for the simulated systems and the
// log-file model that ANDURIL's explorer consumes.
//
// The paper uses log messages as the observables of an execution (§3): they
// are cheap to collect, they mark state transitions, and they can be
// statically tied to program points. This package mirrors the properties
// that matter there:
//
//   - every record carries a thread (actor) name, because the explorer
//     diffs logs per thread (§5.1.1);
//   - the logical position of a record (its sequence number) defines the
//     logical timeline used by the temporal-distance feedback (§5.2.3);
//   - records render to timestamped text lines — the shape of a production
//     log file — and can be parsed back, because the failure log input is
//     plain text from an uninstrumented deployment;
//   - a record's diff identity is its thread and the interned id of its
//     sanitized message (intern.go); the rendered Msg is what a reader
//     sees. The id is computed once, where the record is made — emit for a
//     run, ParseLine for a production log — and travels with the Entry, so
//     the oracle and every round's diff compare small integers and never
//     strip a rendered message back down.
package logging

import (
	"fmt"
	"strings"
	"time"

	"anduril/internal/des"
)

// Level is a log severity.
type Level int

// Severities, lowest to highest.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

func (l Level) String() string {
	switch l {
	case Debug:
		return "DEBUG"
	case Info:
		return "INFO"
	case Warn:
		return "WARN"
	case Error:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
}

// ParseLevel converts a severity token back to a Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "DEBUG":
		return Debug, true
	case "INFO":
		return Info, true
	case "WARN":
		return Warn, true
	case "ERROR":
		return Error, true
	}
	return Info, false
}

// Record is one log message emitted during a simulated run.
type Record struct {
	Time   des.Time // virtual time of emission
	Thread string   // emitting actor ("main" outside event dispatch)
	Level  Level
	Msg    string // rendered message
}

// Log collects the records of a single run. A record is held as its Entry
// — the part the explorer reads every round, handed out by Entries without
// a copy — beside its virtual time, the one field only a rendered Record
// carries.
type Log struct {
	sim     *des.Sim
	entries []Entry
	times   []des.Time // parallel to entries

	buf []byte // emit's rendering and sanitizing scratch

	// forms maps every message this log has rendered to the string its
	// records share and that string's key. The key is a function of the
	// rendered bytes alone, and every form here is already interned, so a
	// hit skips the string, the sanitize pass and the intern lock without
	// changing anything a reader of the entries sees. Reset keeps it while
	// it holds no more forms than the log has room for records.
	forms map[string]form
}

// form is one rendered message and its Entry key.
type form struct {
	msg string
	key int32
}

// New creates a logger bound to a simulation (for time and thread names).
func New(sim *des.Sim) *Log { return &Log{sim: sim, forms: make(map[string]form)} }

// Reset empties the log for a new run on the same simulation, keeping the
// memory of the last one. Every slice Entries handed out before is dead:
// the next run's records overwrite it. The rendered forms are kept too,
// unless there are more of them than records the log has room for.
func (l *Log) Reset() {
	l.entries = l.entries[:0]
	l.times = l.times[:0]
	if len(l.forms) > cap(l.entries) {
		clear(l.forms)
	}
}

// Pos returns the number of records emitted so far — the current logical
// time on the run's timeline.
func (l *Log) Pos() int { return len(l.entries) }

func (l *Log) record(i int) Record {
	e := &l.entries[i]
	return Record{Time: l.times[i], Thread: e.Thread, Level: e.Level, Msg: e.Msg}
}

func (l *Log) emit(level Level, format string, args ...interface{}) {
	thread := "main"
	var at des.Time
	if l.sim != nil {
		if c := l.sim.Current(); c != "" {
			thread = c
		}
		at = l.sim.Now()
	}
	l.buf = appendf(l.buf[:0], format, args)
	f, seen := l.forms[string(l.buf)]
	if !seen {
		f.msg = string(l.buf)
		l.buf = sanitizeAppend(l.buf[:0], f.msg)
		f.key = internBytes(l.buf) + 1
		l.forms[f.msg] = f
	}
	if cap(l.entries) == len(l.entries) {
		// Pre-size the first growth generously: run logs routinely reach a
		// few hundred records, and letting append double from 1 costs ~10
		// reallocations per run on the reproduce hot path.
		n := max(256, 2*cap(l.entries))
		l.entries = append(make([]Entry, 0, n), l.entries...)
		l.times = append(make([]des.Time, 0, n), l.times...)
	}
	l.entries = append(l.entries, Entry{Thread: thread, Level: level, Msg: f.msg, key: f.key})
	l.times = append(l.times, at)
}

// Debugf logs at Debug severity.
func (l *Log) Debugf(format string, args ...interface{}) { l.emit(Debug, format, args...) }

// Infof logs at Info severity.
func (l *Log) Infof(format string, args ...interface{}) { l.emit(Info, format, args...) }

// Warnf logs at Warn severity.
func (l *Log) Warnf(format string, args ...interface{}) { l.emit(Warn, format, args...) }

// Errorf logs at Error severity.
func (l *Log) Errorf(format string, args ...interface{}) { l.emit(Error, format, args...) }

// baseWall anchors rendered timestamps; the exact value is irrelevant since
// the explorer sanitizes timestamps away, but it makes rendered logs look
// like real production logs.
var baseWall = time.Date(2024, 11, 4, 9, 0, 0, 0, time.UTC)

// RenderLine formats a record the way a Log4j-style production logger
// would: "2024-11-04 09:00:00,123 [thread] LEVEL message".
func RenderLine(r Record) string {
	var b strings.Builder
	writeLine(&b, r)
	return b.String()
}

// writeLine writes r as RenderLine renders it. The seven fields of the
// stamp are written right to left into their zero-filled places; a des.Time
// spans under 300 years either side of baseWall, so a year has four digits.
func writeLine(b *strings.Builder, r Record) {
	t := baseWall.Add(time.Duration(r.Time))
	y, mo, d := t.Date()
	h, mi, s := t.Clock()
	stamp := []byte("0000-00-00 00:00:00,000")
	for i, v := range [7]int{y, int(mo), d, h, mi, s, t.Nanosecond() / 1e6} {
		for at := [7]int{3, 6, 9, 12, 15, 18, 22}[i]; v > 0; at, v = at-1, v/10 {
			stamp[at] += byte(v % 10)
		}
	}
	b.Write(stamp)
	b.WriteString(" [")
	b.WriteString(r.Thread)
	b.WriteString("] ")
	b.WriteString(r.Level.String())
	b.WriteByte(' ')
	b.WriteString(r.Msg)
}

// Render formats the whole run log as production-style text.
func (l *Log) Render() string {
	var b strings.Builder
	n := 0
	for i := range l.entries {
		n += len("2024-11-04 09:00:00,000 [] ERROR \n") + len(l.entries[i].Thread) + len(l.entries[i].Msg)
	}
	b.Grow(n)
	for i := range l.entries {
		writeLine(&b, l.record(i))
		b.WriteByte('\n')
	}
	return b.String()
}

// Entry is a parsed production log line: what the explorer can recover from
// an uninstrumented system's log file (no template, no seq — just text).
//
// An Entry made by a Log or by ParseLine also carries its message's interned
// id. One built by hand does not, and ID computes it on every call; either
// way the id is that of Msg, so whoever rewrites the Msg of an Entry it was
// handed must build a new Entry around it (rewriting Thread is fine).
type Entry struct {
	Thread string
	Level  Level
	Msg    string

	key int32 // interned id of the sanitized Msg plus one; zero: not keyed
}

// ID returns the interned id of the entry's sanitized message: SanitizeID
// of Msg, which a keyed entry remembers.
func (e Entry) ID() int32 {
	if e.key != 0 {
		return e.key - 1
	}
	return SanitizeID(e.Msg)
}

// ParseLine parses one rendered production-style line into a keyed Entry.
// It tolerates the common "date time,millis [thread] LEVEL msg" convention;
// lines that do not match return ok=false (real logs contain stack-trace
// continuation lines and other noise).
func ParseLine(line string) (Entry, bool) {
	// Expect: "YYYY-MM-DD HH:MM:SS,mmm [thread] LEVEL msg"
	rest := line
	sp1 := strings.IndexByte(rest, ' ')
	if sp1 < 0 {
		return Entry{}, false
	}
	sp2 := strings.IndexByte(rest[sp1+1:], ' ')
	if sp2 < 0 {
		return Entry{}, false
	}
	rest = rest[sp1+1+sp2+1:]
	if !strings.HasPrefix(rest, "[") {
		return Entry{}, false
	}
	// Thread names may themselves contain brackets (e.g. "node[1]"), so the
	// closing bracket is the first ']' that is followed by a valid severity
	// token — not simply the first ']'.
	for close := strings.IndexByte(rest, ']'); close >= 0; {
		after := strings.TrimPrefix(rest[close+1:], " ")
		if sp3 := strings.IndexByte(after, ' '); sp3 >= 0 {
			if lvl, ok := ParseLevel(after[:sp3]); ok {
				msg := after[sp3+1:]
				return Entry{Thread: rest[1:close], Level: lvl, Msg: msg, key: SanitizeID(msg) + 1}, true
			}
		}
		next := strings.IndexByte(rest[close+1:], ']')
		if next < 0 {
			break
		}
		close += 1 + next
	}
	return Entry{}, false
}

// Parse parses a production-style log file into entries, skipping
// unparseable lines. The entries are keyed as they are parsed.
func Parse(text string) []Entry {
	var out []Entry
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if e, ok := ParseLine(line); ok {
			out = append(out, e)
		}
	}
	return out
}

// Entries returns the run's records in parsed-entry form, so in-process
// runs and parsed production logs flow through the same diff pipeline. The
// slice is the log's own, not a copy: read-only, and dead once the log is
// Reset.
func (l *Log) Entries() []Entry { return l.entries[:len(l.entries):len(l.entries)] }
