package core_test

// End-to-end regressions for the partial-failure scenarios (f32–f34): the
// partial fault class reproduces them through the ordinary feedback loop,
// the search traces are byte-identical across runs and pinned by goldens,
// and the reproduction scripts replay through Verify. (That enabling
// partial enumeration leaves the paper's 22 site-rooted searches
// unchanged is pinned in classes_test.go.)
//
// Regenerate the partial trace goldens after an intentional change with:
//
//	go test ./internal/core -run TestPartialGoldenTraces -update

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

var partialIDs = []string{"f32", "f33", "f34"}

// TestPartialScenariosReproduceEndToEnd is the tentpole acceptance test:
// each partial-rooted failure's root instance is enumerated from the free
// run, ranked, injected and confirmed by the oracle, and the resulting
// script replays standalone (the plan carries the partial instance, so
// Verify needs no enumeration flag).
func TestPartialScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range partialIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			sc, ok := failures.ByID(id)
			if !ok {
				t.Fatalf("scenario %s not registered", id)
			}
			tgt := target(t, id)
			rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500})
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
			}
			if !rep.PartialRooted {
				t.Fatalf("%s reproduced by %v, not marked partial-rooted", id, rep.Script)
			}
			if !inject.IsPartialSite(rep.Script.Site) {
				t.Fatalf("%s script %v is not a partial pseudo-site", id, rep.Script)
			}
			if rep.Script.Site != sc.RootSite {
				t.Fatalf("%s reproduced via %v, ground truth %s", id, *rep.Script, sc.RootSite)
			}
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s script %v does not verify under seed %d", id, rep.Script, rep.ScriptSeed)
			}
		})
	}
}

// TestPartialGoldenTraces pins the full search trajectory of each
// partial scenario; TestPartialTraceDeterministic proves a second
// in-process run emits the identical byte stream.
func TestPartialGoldenTraces(t *testing.T) {
	for _, id := range partialIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			got := pairTrace(t, id)
			compareGolden(t, fmt.Sprintf("testdata/%s.trace.jsonl", id), got)
		})
	}
}

func TestPartialTraceDeterministic(t *testing.T) {
	for _, id := range partialIDs {
		a := pairTrace(t, id)
		b := pairTrace(t, id)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs produced different traces", id)
		}
	}
}

// TestPartialInjectedTraceEvents: a partial-rooted search's trace records
// the injection of its script as a partial_injected event carrying the
// partial class and subject (and peer, for channel-scoped classes like
// dup-deliver) of the executed fault.
func TestPartialInjectedTraceEvents(t *testing.T) {
	tgt := target(t, "f34")
	var mem trace.Memory
	rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500, Trace: &mem})
	if !rep.Reproduced {
		t.Fatal("f34 not reproduced")
	}
	found := false
	for i := range mem.Events {
		ev := &mem.Events[i]
		if ev.Type != trace.PartialInjected {
			continue
		}
		if ev.Site == rep.Script.Site && ev.Occ == rep.Script.Occurrence {
			found = true
			if ev.Class != string(inject.PartialDupDeliver) || ev.Subject != "mq-producer-1" || ev.Peer != "broker-a" {
				t.Fatalf("partial_injected event incomplete: %+v", ev)
			}
			if l := trace.Line(ev); !strings.Contains(l, "partial_injected") {
				t.Fatalf("rendered line does not name the event: %s", l)
			}
		}
	}
	if !found {
		t.Fatalf("no partial_injected event for script %v", rep.Script)
	}
}
