package tablestore

import (
	"fmt"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/inject"
)

func runFree(t *testing.T, w cluster.Workload, seed int64) *cluster.Result {
	t.Helper()
	return cluster.Execute(seed, nil, true, w, Horizon)
}

func runWith(t *testing.T, w cluster.Workload, seed int64, inst inject.Instance) *cluster.Result {
	t.Helper()
	return cluster.Execute(seed, inject.Exact(inst), true, w, Horizon)
}

func TestWALWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := runFree(t, WorkloadWAL, seed)
		if !r.LogContains("finished put loop") {
			t.Fatalf("seed %d: puts did not finish", seed)
		}
		if r.LogContains("Failed to get sync result") {
			t.Fatalf("seed %d: spurious flush timeout", seed)
		}
		if len(r.Blocked) != 0 {
			t.Fatalf("seed %d: stuck threads: %v", seed, r.Blocked)
		}
		if !r.LogContains("Rolled WAL on rs1") {
			t.Fatalf("seed %d: no WAL roll happened", seed)
		}
	}
}

func TestReplicationWorkloadHealthy(t *testing.T) {
	r := runFree(t, WorkloadReplication, 1)
	if !r.LogContains("Replicated WAL file") {
		t.Fatalf("nothing replicated:\n%s", r.RenderLog())
	}
	if r.LogContains("Replication stuck") {
		t.Fatal("spurious replication stall")
	}
}

func TestCrashWorkloadHealthy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := runFree(t, WorkloadCrash, seed)
		if !r.LogContains("Region server rs2 process exited") {
			t.Fatalf("seed %d: rs2 did not die", seed)
		}
		if !r.LogContains("WAL split for rs2 completed") {
			t.Fatalf("seed %d: split did not complete\n%s", seed, r.RenderLog())
		}
		if !r.LogContainsExact("Claimed replication queue of rs2") {
			t.Fatalf("seed %d: queue not claimed", seed)
		}
	}
}

func TestProceduresAndBatchHealthy(t *testing.T) {
	r := runFree(t, WorkloadProcedures, 1)
	if !r.LogContains("all procedures finished") {
		t.Fatalf("procedures did not finish:\n%s", r.RenderLog())
	}
	rb := runFree(t, WorkloadBatch, 1)
	if rb.LogContains("Corrupt cell detected") {
		t.Fatal("spurious corruption")
	}
	if !rb.LogContains("verified") {
		t.Fatalf("verification did not run:\n%s", rb.RenderLog())
	}
}

// f17 — HB-25905: find a stream-write occurrence just before a roll; the
// roller hangs at waitForSafePoint and flushes time out.
func TestF17StuckWAL(t *testing.T) {
	free := runFree(t, WorkloadWAL, 1)
	n := free.Counts["ts.wal.stream-write"]
	if n < 50 {
		t.Fatalf("stream-write occurrences: %d", n)
	}
	var hit int
	for occ := 1; occ <= n; occ++ {
		r := cluster.Execute(1, inject.Exact(inject.Instance{Site: "ts.wal.stream-write", Occurrence: occ}), false, WorkloadWAL, Horizon)
		if r.LogContains("Failed to get sync result") && r.BlockedOn("waitForSafePoint") {
			hit = occ
			break
		}
	}
	if hit == 0 {
		t.Fatal("no occurrence wedges the WAL")
	}
	t.Logf("occurrence %d of %d wedges the WAL", hit, n)
	// Control: occurrence 1 (far from any roll) recovers cleanly.
	r := runWith(t, WorkloadWAL, 1, inject.Instance{Site: "ts.wal.stream-write", Occurrence: 1})
	if r.BlockedOn("waitForSafePoint") {
		t.Fatal("occurrence 1 should recover via writer roll")
	}
	if !r.LogContains("WAL stream broken") || !r.LogContains("Rolled WAL writer") {
		t.Fatalf("recovery path not exercised:\n%s", r.RenderLog())
	}
}

// f12 — HB-18137: a failed header write leaves an empty WAL that wedges
// replication.
func TestF12EmptyWAL(t *testing.T) {
	r := runWith(t, WorkloadReplication, 1, inject.Instance{Site: "ts.wal.write-header", Occurrence: 3})
	if !r.LogContains("Failed to write WAL header") {
		t.Fatalf("header write did not fail:\n%s", r.RenderLog())
	}
	if !r.LogContains("Replication stuck on empty WAL file") {
		t.Fatalf("replication did not wedge:\n%s", r.RenderLog())
	}
}

// f13 — HB-19608: an interrupted step latches the executor failed flag and
// later procedures are rejected.
func TestF13InterruptedProcedure(t *testing.T) {
	r := runWith(t, WorkloadProcedures, 1, inject.Instance{Site: "ts.proc.step-wait", Occurrence: 2})
	if !r.LogContains("marking procedure as failed") {
		t.Fatalf("interrupt not hit:\n%s", r.RenderLog())
	}
	if !r.LogContains("rejecting procedure") {
		t.Fatalf("later procedures not rejected:\n%s", r.RenderLog())
	}
}

// f13 control: interrupting the very last step leaves nothing to reject.
func TestF13LastStepTolerated(t *testing.T) {
	free := runFree(t, WorkloadProcedures, 1)
	last := free.Counts["ts.proc.step-wait"]
	r := runWith(t, WorkloadProcedures, 1, inject.Instance{Site: "ts.proc.step-wait", Occurrence: last})
	if r.LogContains("rejecting procedure") {
		t.Fatal("no procedure should be rejected after the last step")
	}
}

// f14 — HB-19876: a decode failure mid-batch (non-atomic) corrupts the
// cells of the following mutations.
func TestF14CellScannerCorruption(t *testing.T) {
	r := runWith(t, WorkloadBatch, 1, inject.Instance{Site: "ts.region.decode-mutation", Occurrence: 2})
	if !r.LogContains("Failed to convert mutation") {
		t.Fatalf("decode did not fail:\n%s", r.RenderLog())
	}
	if !r.LogContains("Corrupt cell detected") {
		t.Fatalf("no corruption detected:\n%s", r.RenderLog())
	}
}

// f14 control: the same fault in an ATOMIC batch rejects cleanly.
func TestF14AtomicBatchTolerated(t *testing.T) {
	r := runWith(t, WorkloadBatch, 1, inject.Instance{Site: "ts.region.decode-mutation", Occurrence: 5})
	if !r.LogContains("Atomic batch") {
		t.Fatalf("atomic rejection not hit:\n%s", r.RenderLog())
	}
	if r.LogContains("Corrupt cell detected") {
		t.Fatal("atomic batch must not corrupt")
	}
}

// f15 — HB-20583: a split-task failure resubmits the wrong task; the split
// never completes.
func TestF15WrongResubmit(t *testing.T) {
	r := runWith(t, WorkloadCrash, 1, inject.Instance{Site: "ts.split.read-walchunk", Occurrence: 2})
	if !r.LogContains("failed on") {
		t.Fatalf("split task did not fail:\n%s", r.RenderLog())
	}
	if r.LogContains("WAL split for rs2 completed") {
		t.Fatal("split should never complete (the bug)")
	}
	if !r.LogContains("still in RECOVERING state") {
		t.Fatalf("recovery symptom missing:\n%s", r.RenderLog())
	}
}

// f16 — HB-16144: the claimer aborts holding the lock; no one can claim.
func TestF16OrphanedLock(t *testing.T) {
	r := runWith(t, WorkloadCrash, 1, inject.Instance{Site: "ts.repl.copy-queue", Occurrence: 1})
	if !r.LogContains("Aborting region server") {
		t.Fatalf("claimer did not abort:\n%s", r.RenderLog())
	}
	if r.LogContainsExact("Claimed replication queue of rs2") {
		t.Fatal("rs2's queue must never be claimed (the bug)")
	}
	if !r.LogContains("Failed to claim replication queue") {
		t.Fatalf("other servers should keep failing:\n%s", r.RenderLog())
	}
}

func TestFaultSitesExercised(t *testing.T) {
	sites := map[string]bool{}
	for _, w := range []cluster.Workload{WorkloadWAL, WorkloadReplication, WorkloadCrash, WorkloadProcedures, WorkloadBatch} {
		r := runFree(t, w, 1)
		for s, n := range r.Counts {
			if n > 0 {
				sites[s] = true
			}
		}
	}
	for _, site := range []string{
		"ts.wal.stream-write", "ts.wal.create-writer", "ts.wal.write-header",
		"ts.wal.append-entry", "ts.region.decode-mutation", "ts.proc.step-wait",
		"ts.split.read-walchunk", "ts.split.write-edits", "ts.repl.copy-queue",
		"ts.repl.read-wal", "ts.repl.ship-entries", "ts.rs.send-heartbeat",
	} {
		if !sites[site] {
			t.Errorf("fault site %s never exercised", site)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runFree(t, WorkloadWAL, 9)
	b := runFree(t, WorkloadWAL, 9)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("nondeterministic: %d vs %d", len(a.Entries), len(b.Entries))
	}
}

// The WAL's on-disk line is the format Sprintf("%d|%s|%s|%s\n") wrote,
// appended after whatever the buffer held; a rolled writer gets a new file
// name and the old one is not recomputed in between.
func TestWALEntryEncoding(t *testing.T) {
	for _, e := range []walEntry{
		{seq: 1, row: "row-0001", value: "val-0001"},
		{seq: 1234567, row: "", value: "a|b"},
		{seq: 10, row: "region-a", flush: true},
	} {
		kind := "put"
		if e.flush {
			kind = "flush"
		}
		want := fmt.Sprintf("%d|%s|%s|%s\n", e.seq, kind, e.row, e.value)
		if got := string(appendWALEntry([]byte("x"), e)); got != "x"+want {
			t.Fatalf("appendWALEntry(%+v) = %q, want %q", e, got, "x"+want)
		}
	}
	w := &WAL{rs: &RegionServer{name: "rs2"}}
	if got := w.currentFile(); got != "rs2/wal/log.0" {
		t.Fatalf("currentFile = %q", got)
	}
	w.epoch = 12
	if got := w.currentFile(); got != "rs2/wal/log.12" || w.currentFile() != got {
		t.Fatalf("currentFile after roll = %q", got)
	}
}
