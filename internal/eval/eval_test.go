package eval

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", ""}},
		Notes:  []string{"n1", "n2"},
	}
	want := "demo\n\n| a | long-header |\n|---|---|\n| x | 1 |\n| yyyy |  |\n\nnote: n1\nnote: n2\n"
	if got := tbl.Render(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	tbl.Notes = nil
	if got := tbl.Render(); !strings.HasSuffix(got, "| yyyy |  |\n") {
		t.Fatalf("a table without notes ends at its last row:\n%s", got)
	}
}

// Under NoTiming the wall-time columns are left out, header and rows
// alike, instead of being masked.
func TestNoTimingLeavesWallTimeColumnsOut(t *testing.T) {
	for _, noTime := range []bool{false, true} {
		tbl, err := Table4Performance(Options{MaxRounds: 20, NoTiming: noTime})
		if err != nil {
			t.Fatal(err)
		}
		want := 5
		if noTime {
			want = 2
		}
		for _, row := range append([][]string{tbl.Header}, tbl.Rows...) {
			if len(row) != want {
				t.Errorf("NoTiming=%v: row %v has %d cells, want %d", noTime, row, len(row), want)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	tbl, err := Table1FaultSites(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
	t.Logf("\n%s", tbl.Render())
}

func TestTable2FullFeedbackOnly(t *testing.T) {
	tbl, err := Table2Efficacy(Options{MaxRounds: 100}, []core.Strategy{core.FullFeedback})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 22+2 {
		t.Fatalf("rows=%d, want 22 failures and the reproduced and median rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] == "-" {
			t.Errorf("%s not reproduced by full feedback", row[0])
		}
	}
	if got := tbl.Rows[22]; got[0] != "reproduced" || got[1] != "22" {
		t.Errorf("summary row %v, want reproduced 22", got)
	}
}

var wideSweep = flag.Int("sweep-seeds", 0, "engine seeds per cell for TestWideSeedSweep (0 skips it)")

// TestWideSeedSweep runs Table 11's sweep over -sweep-seeds seeds, beyond
// the 32 its committed block holds: no search may call the fault space
// exhausted, and no search that reaches the round cap may have spent a round
// on a window in which nothing occurred.
func TestWideSeedSweep(t *testing.T) {
	n := *wideSweep
	if n == 0 {
		t.Skip("-sweep-seeds 0")
	}
	tbl, grid, err := seedSweep(Options{NoTiming: true}, n)
	if err != nil {
		t.Fatal(err)
	}
	ends := map[string]int{}
	for vi, reps := range grid {
		mode, seed := sweepModes[vi/n], 1+int64(vi%n)*sweepStride
		for _, rep := range reps {
			ends[rep.Reason]++
			empty := 0
			for _, rd := range rep.RoundLog {
				if rd.Injected == nil && !rd.Inconclusive {
					empty++
				}
			}
			if rep.Reason == trace.ReasonExhausted || (rep.Reason == trace.ReasonRoundCap && empty > 0) {
				t.Errorf("%s/%s seed %d: %s after %d rounds, %d of them empty", rep.Target, mode, seed, rep.Reason, rep.Rounds, empty)
			}
		}
	}
	t.Log(strings.Join(tbl.Notes, " "), "ends:", ends)
}

// TestAllClassSweep runs Table 11's occurrence-mode sweep over -sweep-seeds
// seeds with all four fault classes enabled on every failure. Each class
// runs both its passes before the next one opens, so a search ends with
// every class searched: none may call the fault space exhausted or end
// with the window unreached.
func TestAllClassSweep(t *testing.T) {
	n := *wideSweep
	if n == 0 {
		t.Skip("-sweep-seeds 0")
	}
	opt := Options{NoTiming: true}.withDefaults()
	variants := make([]variant, n)
	for i := range variants {
		o := opt.search(core.FullFeedback)
		o.Seed += int64(i) * sweepStride
		o.FaultClasses = []string{core.ClassSite, core.ClassEnv, core.ClassPartial, core.ClassPair}
		variants[i] = variant{opts: o}
	}
	grid, err := runGrid(opt, "allclass", failures.All(), variants...)
	if err != nil {
		t.Fatal(err)
	}
	ends := map[string]int{}
	for vi, reps := range grid {
		for _, rep := range reps {
			ends[rep.Reason]++
			if rep.Reason == trace.ReasonExhausted || rep.Reason == trace.ReasonWindowUnreached {
				t.Errorf("%s seed %d: %s after %d rounds", rep.Target, variants[vi].opts.Seed, rep.Reason, rep.Rounds)
			}
		}
	}
	t.Log("ends:", ends)
}

// TestSeedSweepFirstSeedIsTheTables: a cell's first sample in Table 11 is
// the search Tables 2 and 10 run, so at one seed each occurrence row is
// Table 2's full-feedback cell (f1–f22) or Table 10's Rounds (f23–f34).
func TestSeedSweepFirstSeedIsTheTables(t *testing.T) {
	opt := Options{MaxRounds: 100, NoTiming: true}
	sweep, _, err := seedSweep(opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2Efficacy(opt, []core.Strategy{core.FullFeedback})
	if err != nil {
		t.Fatal(err)
	}
	t10, err := Table10BeyondPaper(opt)
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]string // label, rounds
	for _, row := range t2.Rows[:22] {
		want = append(want, [2]string{row[0], row[1]})
	}
	for _, row := range t10.Rows {
		want = append(want, [2]string{row[0], row[3]})
	}
	if len(sweep.Rows) != 2*len(want) {
		t.Fatalf("%d sweep rows, want two per failure for %d failures", len(sweep.Rows), len(want))
	}
	for i, w := range want {
		row := sweep.Rows[2*i]
		if row[0] != w[0] || row[1] != "occurrence" || row[3] != w[1] || row[4] != w[1] || row[6] != w[1] {
			t.Errorf("sweep row %v, want %s occurrence at %s rounds", row, w[0], w[1])
		}
	}
}

func TestTable4And8(t *testing.T) {
	t4, err := Table4Performance(Options{MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 5 {
		t.Fatalf("t4 rows=%d", len(t4.Rows))
	}
	t8, err := Table8Runtime(Options{MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) != 22 {
		t.Fatalf("t8 rows=%d", len(t8.Rows))
	}
}

func TestTable7(t *testing.T) {
	tbl, err := Table7StaticAnalysis(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
	t.Logf("\n%s", tbl.Render())
}

func TestFigure6(t *testing.T) {
	tbl, err := Figure6RankTrajectory(Options{MaxRounds: 300}, "f17")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no trajectory rows")
	}
	t.Logf("\n%s", tbl.Render())
}

// TestVerifyAllInvariant: no free run satisfies its failure's oracle.
func TestVerifyAllInvariant(t *testing.T) {
	for _, s := range failures.SiteDataset() {
		free, err := cluster.Run(nil, nil, 1, nil, s.Workload, s.Horizon, 0)
		if err != nil {
			t.Fatalf("%s: free run: %v", s.ID, err)
		}
		if s.Oracle.Satisfied(free) {
			t.Errorf("%s: oracle satisfied without fault", s.ID)
		}
	}
}

func TestTable5And6AndAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opt := Options{MaxRounds: 80}
	t5, err := Table5Failures(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 22 {
		t.Fatalf("t5 rows=%d", len(t5.Rows))
	}
	// The stacktrace baseline must reproduce a strict subset.
	st := 0
	for _, row := range t5.Rows {
		if row[2] != "-" {
			st++
		}
	}
	if st == 0 || st == 22 {
		t.Fatalf("stacktrace reproduced %d — expected a strict subset", st)
	}

	t6, err := Table6NewRootCauses(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) == 0 {
		t.Fatal("no new root causes surfaced")
	}
	for _, row := range t6.Rows {
		if row[3] != "true" {
			t.Errorf("unverified new root cause: %v", row)
		}
	}

	ab, err := AblationTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Rows) != 5 {
		t.Fatalf("ablation rows=%d", len(ab.Rows))
	}
	if ab.Rows[0][1] != "22/22" {
		t.Fatalf("baseline ablation: %v", ab.Rows[0])
	}
}

func TestTable3Lite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl, err := Table3Sensitivity(Options{MaxRounds: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
	// The default setting (k=10, s=+1) must reproduce everything.
	for i, cell := range tbl.Rows[2][1:] {
		if cell == "-" {
			t.Errorf("k=10 failed on %s", tbl.Header[i+1])
		}
	}
}

// TestTraceDirOneFilePerCell: every table and the figure run their cells
// through runGrid, so TraceDir captures each cell exactly once.
func TestTraceDirOneFilePerCell(t *testing.T) {
	one := []core.Strategy{core.FullFeedback}
	for _, c := range []struct {
		label string
		cells int
		run   func(Options) (*Table, error)
	}{
		{"table1", 22, Table1FaultSites},
		{"table2", 22, func(o Options) (*Table, error) { return Table2Efficacy(o, one) }},
		{"table3", 6 * 22, Table3Sensitivity},
		{"table4", 22, Table4Performance},
		{"table5", 22, Table5Failures},
		{"table6", 22, Table6NewRootCauses},
		{"table8", 22, Table8Runtime},
		{"ablation", len(ablationSettings) * 22, AblationTable},
		{"table10", 12, Table10BeyondPaper},
		{"table11", 2 * 34, func(o Options) (*Table, error) {
			t, _, err := seedSweep(o, 1)
			return t, err
		}},
		{"figure6", 1, func(o Options) (*Table, error) { return Figure6RankTrajectory(o, "f4") }},
	} {
		dir := t.TempDir()
		if _, err := c.run(Options{MaxRounds: 20, TraceDir: dir}); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != c.cells {
			t.Errorf("%s: trace dir holds %d files, want %d", c.label, len(files), c.cells)
		}
		for _, f := range files {
			base := filepath.Base(f)
			if !strings.HasPrefix(base, c.label+"-") || !strings.HasSuffix(base, ".trace.jsonl") {
				t.Errorf("%s: unexpected file %s", c.label, base)
			} else if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Errorf("%s: trace %s is empty (stat err %v)", c.label, base, err)
			}
		}
	}
}
