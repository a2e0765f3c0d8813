package eval

// Tests for the parallel evaluation harness: worker-count equivalence
// (the determinism guarantee) and concurrent use of shared targets (run
// them under -race to exercise the read-only Target contract).

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// Parallel and serial runs must render byte-identical output for a fixed
// seed. NoTiming masks the wall-clock cells — those are measurements, not
// functions of the seed, and differ between ANY two runs, serial or not;
// everything else (rounds, reproduction verdicts, counts) must match
// byte for byte.
func TestParallelSerialEquivalenceTable2(t *testing.T) {
	strategies := []core.Strategy{core.FullFeedback, core.StackTrace, core.CrashTuner}
	serial := Options{MaxRounds: 60, Workers: 1, NoTiming: true}
	par := Options{MaxRounds: 60, Workers: 8, NoTiming: true}

	a, err := Table2Efficacy(serial, strategies)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table2Efficacy(par, strategies)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("table 2 differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s", a.Render(), b.Render())
	}
}

func TestParallelSerialEquivalenceTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	serial := Options{MaxRounds: 120, Workers: 1}
	par := Options{MaxRounds: 120, Workers: 8}

	a, err := Table3Sensitivity(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table3Sensitivity(par)
	if err != nil {
		t.Fatal(err)
	}
	// Table 3 renders rounds only — no timing cells — so the full output
	// must already be byte-identical without masking.
	if a.Render() != b.Render() {
		t.Fatalf("table 3 differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s", a.Render(), b.Render())
	}
}

// Per-cell traces carry only seed-determined data, so a serial and a
// parallel run of the same grid must produce byte-identical trace files —
// the in-repo version of the CI trace-determinism diff job.
func TestTraceCaptureEquivalenceAcrossWorkers(t *testing.T) {
	strategies := []core.Strategy{core.FullFeedback, core.CrashTuner}
	serialDir := t.TempDir()
	parDir := t.TempDir()
	serial := Options{MaxRounds: 60, Workers: 1, NoTiming: true, TraceDir: serialDir}
	par := Options{MaxRounds: 60, Workers: 8, NoTiming: true, TraceDir: parDir}

	if _, err := Table2Efficacy(serial, strategies); err != nil {
		t.Fatal(err)
	}
	if _, err := Table2Efficacy(par, strategies); err != nil {
		t.Fatal(err)
	}

	serialFiles, err := filepath.Glob(filepath.Join(serialDir, "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(serialFiles) != 22*len(strategies) {
		t.Fatalf("serial run wrote %d trace files, want %d", len(serialFiles), 22*len(strategies))
	}
	for _, sf := range serialFiles {
		name := filepath.Base(sf)
		want, err := os.ReadFile(sf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(parDir, name))
		if err != nil {
			t.Fatalf("parallel run missing trace %s: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("trace %s differs between -j 1 and -j 8", name)
		}
		if len(want) == 0 {
			t.Errorf("trace %s is empty", name)
		}
	}
}

// Concurrent Reproduce calls on SHARED targets must be independent: same
// reports as serial runs, no cross-talk (run with -race to check the
// read-only Target contract is honored).
func TestConcurrentReproduceSharedTargets(t *testing.T) {
	ids := []string{"f1", "f4", "f17"}
	targets := map[string]*core.Target{}
	for _, id := range ids {
		targets[id] = sharedTarget(t, id)
	}
	type job struct {
		id   string
		seed int64
	}
	var jobs []job
	for _, id := range ids {
		for seed := int64(1); seed <= 3; seed++ {
			jobs = append(jobs, job{id, seed})
		}
	}
	// Serial reference first.
	want := make(map[job]*core.Report)
	for _, j := range jobs {
		want[j] = core.Reproduce(targets[j.id], core.Options{
			Strategy: core.FullFeedback, Seed: j.seed, MaxRounds: 60,
		})
	}
	// Now all jobs at once, several goroutines per target.
	var wg sync.WaitGroup
	got := make([]*core.Report, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i] = core.Reproduce(targets[j.id], core.Options{
				Strategy: core.FullFeedback, Seed: j.seed, MaxRounds: 60,
			})
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		w, g := want[j], got[i]
		if g.Reproduced != w.Reproduced || g.Rounds != w.Rounds {
			t.Errorf("%s seed %d: concurrent (reproduced=%v rounds=%d) != serial (reproduced=%v rounds=%d)",
				j.id, j.seed, g.Reproduced, g.Rounds, w.Reproduced, w.Rounds)
		}
		if w.Script != nil && (g.Script == nil || *g.Script != *w.Script) {
			t.Errorf("%s seed %d: script differs: %v vs %v", j.id, j.seed, g.Script, w.Script)
		}
	}
}

func sharedTarget(t *testing.T, id string) *core.Target {
	t.Helper()
	s, ok := failures.ByID(id)
	if !ok {
		t.Fatalf("no scenario %s", id)
	}
	tgt, err := s.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// Every table cell of one scenario runs against ONE target: BuildTarget
// builds once per process and hands every caller, concurrent ones
// included, the same read-only pointer (the name predates that: eval used
// to keep its own cache and hand out copies of the map).
func TestBuildTargetsReturnsCopy(t *testing.T) {
	s, _ := failures.ByID("f2")
	got := make([]*core.Target, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = s.BuildTarget()
		}(i)
	}
	wg.Wait()
	for i, tgt := range got {
		if tgt == nil || tgt != got[0] {
			t.Fatalf("caller %d got target %p, caller 0 got %p", i, tgt, got[0])
		}
	}
}

// The median helper must not reorder the caller's slice — cells under
// the worker pool reuse their slices, so in-place sorting was a real bug.
func TestMediansDoNotMutate(t *testing.T) {
	ints := []int{5, 1, 4, 2, 3}
	if m := median(ints); m != 3 {
		t.Fatalf("median=%d", m)
	}
	if ints[0] != 5 || ints[4] != 3 {
		t.Fatalf("median reordered its input: %v", ints)
	}
	durs := []int64{50, 10, 40, 20, 30}
	orig := append([]int64(nil), durs...)
	ds := make([]time.Duration, len(durs))
	for i, d := range durs {
		ds[i] = time.Duration(d)
	}
	if m := median(ds); m != 30 {
		t.Fatalf("median=%v", m)
	}
	for i := range durs {
		if int64(ds[i]) != orig[i] {
			t.Fatalf("median reordered its input: %v", ds)
		}
	}
}
