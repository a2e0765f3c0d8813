package trace

import "testing"

func TestLineMeta(t *testing.T) {
	cases := []struct {
		name      string
		line      string
		wantType  EventType
		wantRound int
		wantOK    bool
	}{
		{"free run", `{"event":"free_run","target":"f4","seed":1}`, FreeRun, 0, true},
		{"round event", `{"event":"decision","round":17,"window":4}`, Decision, 17, true},
		{"outcome", `{"event":"outcome","reproduced":true,"rounds":9}`, Outcome, 0, true},
		{"trailing space", `{"event":"round","round":3}` + "\n", RoundStart, 3, true},
		{"torn tail", `{"event":"decision","rou`, "", 0, false},
		{"blank", "", "", 0, false},
		{"whitespace", "   \n", "", 0, false},
		{"json, no event", `{"round":4}`, "", 0, false},
		{"not json", "round 4", "", 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			typ, round, ok := LineMeta([]byte(c.line))
			if typ != c.wantType || round != c.wantRound || ok != c.wantOK {
				t.Fatalf("LineMeta(%q) = (%q, %d, %v), want (%q, %d, %v)",
					c.line, typ, round, ok, c.wantType, c.wantRound, c.wantOK)
			}
		})
	}
}

// Every line Line renders must round-trip through LineMeta: the recovery
// trim walks real journal files line by line.
func TestLineMetaReadsAppendEventOutput(t *testing.T) {
	events := []Event{
		{Type: FreeRun, Target: "f9", Strategy: "full-feedback", Seed: 1},
		{Type: RoundStart, Round: 12, Window: 4},
		{Type: Inconclusive, Round: 30, Class: "panic"},
		{Type: Outcome, Reproduced: true, Rounds: 12, Reason: ReasonReproduced},
	}
	for _, ev := range events {
		line := Line(&ev)
		typ, round, ok := LineMeta([]byte(line))
		if !ok {
			t.Fatalf("LineMeta rejected encoder output %s", line)
		}
		if typ != ev.Type || round != ev.Round {
			t.Fatalf("LineMeta(%s) = (%q, %d), want (%q, %d)", line, typ, round, ev.Type, ev.Round)
		}
	}
}
