package core_test

// End-to-end regressions for the combined-fault scenarios (f30–f31): the
// pair fault class reproduces them through the ordinary feedback loop,
// the search trace is byte-identical across runs and pinned by goldens,
// and the reproduction script replays deterministically through Verify.
//
// Regenerate the pair trace goldens after an intentional change with:
//
//	go test ./internal/core -run TestPairGoldenTraces -update

import (
	"bytes"
	"fmt"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

var pairIDs = []string{"f30", "f31"}

// TestPairScenariosReproduceEndToEnd: the full feedback workflow finds
// the declared ground-truth pair for every combined-fault scenario, the
// script decomposes into two members, and Verify replays it.
func TestPairScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range pairIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			sc, ok := failures.ByID(id)
			if !ok {
				t.Fatalf("scenario %s not registered", id)
			}
			tgt, err := sc.BuildTarget()
			if err != nil {
				t.Fatal(err)
			}
			rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500})
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
			}
			if rep.Script.Site != sc.RootSite {
				t.Fatalf("%s reproduced via %v, ground truth %s", id, *rep.Script, sc.RootSite)
			}
			if _, _, ok := inject.PairMembers(*rep.Script); !ok {
				t.Fatalf("%s: script %v does not decompose into pair members", id, *rep.Script)
			}
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s: script %v does not verify", id, *rep.Script)
			}
		})
	}
}

// pairTrace runs one pair scenario's reproduction with a trace sink.
func pairTrace(t *testing.T, id string) []byte {
	t.Helper()
	sc, _ := failures.ByID(id)
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewWriter(&buf)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500, Trace: sink})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced {
		t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
	}
	return buf.Bytes()
}

// TestPairGoldenTraces pins the full search trajectory of each pair
// scenario; TestPairTraceDeterministic proves a second in-process run
// emits the identical byte stream.
func TestPairGoldenTraces(t *testing.T) {
	for _, id := range pairIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			got := pairTrace(t, id)
			compareGolden(t, fmt.Sprintf("testdata/%s.trace.jsonl", id), got)
		})
	}
}

func TestPairTraceDeterministic(t *testing.T) {
	for _, id := range pairIDs {
		a := pairTrace(t, id)
		b := pairTrace(t, id)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs produced different traces", id)
		}
	}
}

// TestPairScoreMemoEqualsRecompute: the temporal score stamped on every
// pair instance at enumeration is exactly the member-wise nearestObs sum,
// recomputed from the members the pair Instance itself names — in both
// addressing modes, since a path-addressed pair names its members by path.
func TestPairScoreMemoEqualsRecompute(t *testing.T) {
	for _, id := range pairIDs {
		for _, addr := range []core.Addressing{core.AddrOccurrence, core.AddrPath} {
			id, addr := id, addr
			t.Run(fmt.Sprintf("%s/%s", id, addr), func(t *testing.T) {
				p, err := core.Prepare(target(t, id), core.Options{Seed: 1, MaxRounds: 500, Addressing: addr})
				if err != nil {
					t.Fatal(err)
				}
				checked := 0
				p.PairScores(func(pair inject.Instance, memo, recomputed float64) {
					checked++
					if memo != recomputed {
						t.Errorf("%s#%d (%s): memoized score %v, recomputed %v",
							pair.Site, pair.Occurrence, pair.Path, memo, recomputed)
					}
				})
				if checked == 0 {
					t.Fatal("no pair instances enumerated")
				}
			})
		}
	}
}
