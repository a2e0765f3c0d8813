package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// encoderCorpus covers every Event field, every omitempty boundary, the
// Float special forms, and the string-escaping corners (quotes, control
// bytes, HTML metacharacters, U+2028/U+2029, invalid UTF-8).
func encoderCorpus() []Event {
	return []Event{
		{},
		{Type: FreeRun, Target: "zk/f4", Strategy: "full-feedback", Seed: 1,
			LogLines: 71,
			Observables: []string{
				"Unexpected null datatree node restoring snapshot zk#/snapshot.#: NullPointerException",
				"",
			},
			Sites: []SiteCount{{Site: "zk.snap.write-body", Instances: 9}, {Site: "zk.snap.read", Instances: 0}}},
		{Type: RoundStart, Round: 3, Window: 4, RootRank: 2, Top: []SiteRank{
			{Site: "zk.snap.write-header", F: Float(math.Inf(1)), BestObs: "obs-a", Tried: 2},
			{Site: "zk.snap.write-body", F: 0, Tried: 0},
			{Site: "zk.sync.fsync-txnlog", F: -3.75, BestObs: "", Tried: 1},
		}},
		{Type: SecondPass, Round: 17},
		{Type: RoundStart, Round: 1, Candidates: []Candidate{
			{Site: "a.b", Occ: 1}, {Site: "a.b", Occ: 2}},
			CandidateCount: 54},
		{Type: Injected, Round: 2, Site: "zk.snap.write-body", Occ: 3, Satisfied: true},
		{Type: Injected, Round: 2, Site: "pair/a.x+env/crash/n1", Occ: 5, Path: "a.x:1+env/crash/n1:2"},
		{Type: WindowGrow, Round: 4, From: 4, To: 8},
		{Type: WindowGrow, Round: 5, From: 8, To: 8},
		{Type: Feedback, Round: 2, Missing: 2,
			Bumped: []ObsPriority{{Obs: "obs-a", Priority: 3}, {Obs: "", Priority: 0}}},
		{Type: RoundStart, Round: 2, Top: []SiteRank{
			{Site: "s1", F: Float(math.Inf(-1))},
			{Site: "s2", F: 1e21},
			{Site: "s3", F: -0.0},
		}},
		{Type: Inconclusive, Round: 6, Class: "panic",
			Detail: `runtime error: index out of range [-1]`, Actor: "zk3-sync"},
		{Type: Outcome, Reproduced: true, Rounds: 7, Reason: ReasonReproduced, ScriptSeed: -42},
		{Type: Outcome, Reproduced: false, Reason: ReasonRoundCap},
		// String-escaping corners.
		{Type: "esc", Site: "quote\" backslash\\ tab\t newline\n cr\r"},
		{Type: "esc", Site: "\b\f\x00\x01\x1f\x7f"},
		{Type: "esc", Site: "<script>&amp;</script>"},
		{Type: "esc", Site: "line\u2028sep\u2029end"},
		{Type: "esc", Site: "bad utf8 \xff\xfe mid\x80dle", Detail: strings.Repeat("é", 3)},
		{Type: "esc", Site: "ünïcödé 日本語 🦆"},
	}
}

// TestWriterMatchesJSONEncoder pins the whole Writer stream — including
// line framing and HTML escaping — against a json.Encoder writing the same
// events.
func TestWriterMatchesJSONEncoder(t *testing.T) {
	events := encoderCorpus()
	var got, want bytes.Buffer
	w := NewWriter(&got)
	enc := json.NewEncoder(&want)
	for i := range events {
		w.Emit(&events[i])
		if err := enc.Encode(&events[i]); err != nil {
			t.Fatalf("event %d: json.Encoder: %v", i, err)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Writer error: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("stream mismatch\n got: %q\nwant: %q", got.String(), want.String())
	}
}

// An event encoding/json rejects is an error Writer keeps, and nothing of
// it or of any later event is written.
func TestWriterEncodeErrorIsSticky(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(&Event{Type: RoundStart, Round: 1, Top: []SiteRank{{Site: "s", F: Float(math.NaN())}}})
	w.Emit(&Event{Type: Outcome})
	if w.Err() == nil || buf.Len() != 0 {
		t.Fatalf("Err() = %v after writing %q; want an error and nothing written", w.Err(), buf.String())
	}
}

func sampleEvents() []Event {
	return []Event{
		{Type: FreeRun, Target: "f3", Strategy: "full-feedback", Seed: 1, LogLines: 120,
			Observables: []string{"elec: connection manager died"},
			Sites:       []SiteCount{{Site: "zk.elect.send", Instances: 12}}},
		{Type: RoundStart, Round: 1, Window: 10, RootRank: 2,
			Top:        []SiteRank{{Site: "zk.elect.send", F: 3, BestObs: "elec: x", Tried: 0}},
			Candidates: []Candidate{{Site: "zk.elect.send", Occ: 2}}, CandidateCount: 4},
		{Type: Injected, Round: 1, Site: "zk.elect.send", Occ: 2, Satisfied: false},
		{Type: Feedback, Round: 1, Missing: 1,
			Bumped: []ObsPriority{{Obs: "elec: x", Priority: 1}}},
		{Type: RoundStart, Round: 2, Window: 10, CandidateCount: 3},
		{Type: WindowGrow, Round: 2, From: 10, To: 10},
		{Type: Outcome, Reproduced: true, Rounds: 2, Reason: ReasonReproduced,
			Site: "zk.elect.send", Occ: 5, ScriptSeed: 3},
	}
}

// A written stream must read back identically: the JSONL encoding is the
// interchange format of the golden tests and cmd/trace.
func TestWriterReadAllRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range events {
		w.Emit(&events[i])
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(events) {
		t.Fatalf("wrote %d lines, want %d", n, len(events))
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if Line(&got[i]) != Line(&events[i]) {
			t.Fatalf("event %d round-trip mismatch:\n got %s\nwant %s", i, Line(&got[i]), Line(&events[i]))
		}
	}
}

// Infinite priorities (an unreachable site's F_i) must survive the JSON
// encoding instead of failing it.
func TestFloatInfinityRoundTrip(t *testing.T) {
	ev := Event{Type: RoundStart, Round: 1, Window: 1, Top: []SiteRank{
		{Site: "a", F: Float(math.Inf(1))},
		{Site: "b", F: 2.5},
	}}
	line := Line(&ev)
	if !strings.Contains(line, `"+inf"`) {
		t.Fatalf("infinity not encoded: %s", line)
	}
	got, err := ReadAll(strings.NewReader(line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(got[0].Top[0].F), 1) {
		t.Fatalf("infinity not decoded: %v", got[0].Top[0].F)
	}
	if got[0].Top[1].F != 2.5 {
		t.Fatalf("finite value mangled: %v", got[0].Top[1].F)
	}
}

// A trace an older daemon stored still decodes: its retired events and
// fields — decision, env_injected's subject and dur, pair_injected's
// members, feedback's deltas — keep their type and the fields this Event
// still has, and drop the rest.
func TestReadAllDecodesRetiredEvents(t *testing.T) {
	old := `{"event":"round","round":1,"window":10}
{"event":"decision","round":1,"window":10,"candidates":[{"site":"a.b","occ":2}],"candidate_count":1,"budget":1}
{"event":"env_injected","round":2,"site":"env/crash/zk1","occ":4,"satisfied":true,"class":"crash","subject":"zk1","dur":600000000}
{"event":"pair_injected","round":3,"site":"pair/a.x+b.y","occ":1,"members":[{"site":"a.x","occ":1},{"site":"b.y","occ":2}]}
{"event":"feedback","round":3,"missing":1,"bumped":[{"obs":"o","priority":1}],"deltas":[{"site":"a.x","before":1,"after":"+inf"}]}
`
	got, err := ReadAll(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"event":"round","round":1,"window":10}`,
		`{"event":"decision","round":1,"window":10,"candidates":[{"site":"a.b","occ":2}],"candidate_count":1}`,
		`{"event":"env_injected","round":2,"site":"env/crash/zk1","occ":4,"satisfied":true,"class":"crash"}`,
		`{"event":"pair_injected","round":3,"site":"pair/a.x+b.y","occ":1}`,
		`{"event":"feedback","round":3,"missing":1,"bumped":[{"obs":"o","priority":1}]}`,
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if line := Line(&got[i]); line != want[i] {
			t.Errorf("event %d decoded as %s, want %s", i+1, line, want[i])
		}
	}
}

func TestMemoryStats(t *testing.T) {
	m := &Memory{}
	events := sampleEvents()
	for i := range events {
		m.Emit(&events[i])
	}
	s := AggregateStats(m.Events)
	if s.Rounds != 2 || s.Injections != 1 || s.EmptyRound != 1 || !s.Reproduced {
		t.Fatalf("stats: %+v", s)
	}
	if s.WindowSizes[10] != 2 {
		t.Fatalf("window histogram: %v", s.WindowSizes)
	}
	if s.CandidateCounts[4] != 1 || s.CandidateCounts[3] != 1 {
		t.Fatalf("candidate histogram: %v", s.CandidateCounts)
	}
	if s.SiteTrials["zk.elect.send"] != 1 {
		t.Fatalf("site trials: %v", s.SiteTrials)
	}
	if s.Events[Outcome] != 1 || s.Events[RoundStart] != 2 {
		t.Fatalf("event counts: %v", s.Events)
	}
}

func TestDiff(t *testing.T) {
	a := sampleEvents()
	b := sampleEvents()
	if d := Diff(a, b, 0); len(d) != 0 {
		t.Fatalf("identical streams diff: %v", d)
	}
	b[3].Occ = 99
	d := Diff(a, b, 0)
	if len(d) != 1 || !strings.Contains(d[0], "event 4") {
		t.Fatalf("diff: %v", d)
	}
	// Length mismatch surfaces as added/removed events.
	d = Diff(a, b[:2], 0)
	if len(d) == 0 || !strings.Contains(d[len(d)-1], "- ") {
		t.Fatalf("truncated diff: %v", d)
	}
	// maxDiffs caps the report.
	b2 := sampleEvents()
	for i := range b2 {
		b2[i].Round += 100
	}
	if d := Diff(a, b2, 3); len(d) != 3 {
		t.Fatalf("maxDiffs not honored: %d", len(d))
	}
}

func TestReadAllSkipsBlankAndRejectsGarbage(t *testing.T) {
	got, err := ReadAll(strings.NewReader("\n" + Line(&Event{Type: Outcome}) + "\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank lines: got %d events, err %v", len(got), err)
	}
	if _, err := ReadAll(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}
