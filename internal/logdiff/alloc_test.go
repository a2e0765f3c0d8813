package logdiff

import (
	"fmt"
	"testing"

	"anduril/internal/logging"
)

// TestSanitizeSteadyStateAllocs pins the interning contract: once a
// sanitized template is in the table, Sanitize allocates nothing, no matter
// how the volatile digits vary.
func TestSanitizeSteadyStateAllocs(t *testing.T) {
	msgs := []string{
		"Taking snapshot at zxid=0x1a2b on myid=1",
		"Committed zxid 4660 from leader 2",
		"session 0x1000 expired after 4000 ms",
	}
	for _, m := range msgs {
		Sanitize(m) // warm the intern table
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			Sanitize(m)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Sanitize allocated %.1f times per pass, want 0", allocs)
	}
}

// TestCompareSteadyStateAllocs pins the per-round diff: a run log whose
// entries carry their ids, against a prepared failure side, on a warmed
// Scratch allocates nothing at all — the grouping, the Myers vector and
// rows and the result vector are all the scratch's. (The full Compare, once
// per search, allocates its Result and a scratch of its own.)
func TestCompareSteadyStateAllocs(t *testing.T) {
	var run, failure []logging.Entry
	line := func(thread, msg string) logging.Entry {
		e, ok := logging.ParseLine("2024-11-04 09:00:00,001 [" + thread + "] INFO " + msg)
		if !ok {
			t.Fatalf("line for %q does not parse", msg)
		}
		return e
	}
	for i := 0; i < 200; i++ {
		th := fmt.Sprintf("node%d-sync", i%4)
		msg := "Committed zxid %d from leader 1"
		if i%17 == 0 {
			msg = "Snapshot %d taken" // run-only lines: the diff has edits to make
		}
		run = append(run, line(th, fmt.Sprintf(msg, i)))
		failure = append(failure, line(th, fmt.Sprintf("Committed zxid %d from leader 1", i+7)))
	}
	failure = append(failure, line("node1-sync", "Unexpected null datatree node restoring snapshot: NullPointerException"))

	f := Prepare(failure)
	want := Compare(run, failure).Missing
	var sc Scratch
	check := func() {
		miss := sc.Missing(run, f)
		for i, m := range miss {
			if _, inFull := want[f.keys[i]]; m != inFull {
				t.Fatalf("key %v: Missing says %v, Compare says %v", f.keys[i], m, inFull)
			}
		}
	}
	check() // warm the scratch
	if allocs := testing.AllocsPerRun(50, check); allocs != 0 {
		t.Errorf("the per-round diff allocated %.1f times per call on a 200-entry log, want 0", allocs)
	}
}
