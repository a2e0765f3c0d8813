// Package eval regenerates every table and figure of the paper's
// evaluation (§8 and the appendix) against the Go reproduction. Each
// TableN/FigureN function runs the corresponding experiment and returns a
// Table; Generators lists them for cmd/tables and for the test that holds
// EXPERIMENTS.md to their output.
package eval

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/parallel"
	"anduril/internal/trace"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as GitHub Markdown: the title line, a pipe
// table, and one line per note.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n\n")
	row := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	row(t.Header)
	b.WriteString(strings.Repeat("|---", len(t.Header)) + "|\n")
	for _, r := range t.Rows {
		row(r)
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// Generator is one table or figure, selected in cmd/tables by
// -<Flag> <N>.
type Generator struct {
	Flag string // "table" or "figure"
	N    int
	Run  func(Options) (*Table, error)
}

// Generators lists every table and figure in the order cmd/tables prints
// them. Table 9 is the ablations.
var Generators = []Generator{
	{"table", 1, Table1FaultSites},
	{"table", 2, func(o Options) (*Table, error) { return Table2Efficacy(o, nil) }},
	{"table", 3, Table3Sensitivity},
	{"table", 4, Table4Performance},
	{"table", 5, Table5Failures},
	{"table", 6, Table6NewRootCauses},
	{"table", 7, Table7StaticAnalysis},
	{"table", 8, Table8Runtime},
	{"table", 9, AblationTable},
	{"table", 10, Table10BeyondPaper},
	{"table", 11, Table11SeedSweep},
	{"figure", 6, func(o Options) (*Table, error) { return Figure6RankTrajectory(o, "f4") }},
}

// Options tune the evaluation runs.
type Options struct {
	Seed      int64
	MaxRounds int // cap standing in for the paper's 24-hour limit

	// Workers fans the experiment cells across a worker pool: 0 = one per
	// CPU, 1 = serial. Results are assembled in input order, so every
	// table's deterministic content is byte-identical across worker counts.
	Workers int

	// NoTiming leaves every wall-clock column out. Durations are
	// measurements, not functions of the seed, so leaving them out is what
	// makes full table output byte-stable (cmd/tables -no-time,
	// EXPERIMENTS.md's generated blocks).
	NoTiming bool

	// TraceDir, when non-empty, writes one JSONL explorer trace per
	// experiment cell into this directory, named
	// <table>-<failure>[-<variant>].trace.jsonl; the files are
	// byte-identical across worker counts for a fixed seed.
	TraceDir string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = core.DefaultMaxRounds
	}
	return o
}

// timed returns the wall-clock cells of a header or row, or nothing under
// NoTiming.
func (o Options) timed(cells ...string) []string {
	if o.NoTiming {
		return nil
	}
	return cells
}

// search is the explorer options of one cell: the strategy under the
// evaluation's seed and round cap.
func (o Options) search(s core.Strategy) core.Options {
	return core.Options{Strategy: s, Seed: o.Seed, MaxRounds: o.MaxRounds}
}

// systems lists the five target systems in Table 1 order, with the paper's
// system each one is the analog of. The dyn target (f26–f29) is absent: the
// paper's tables report over exactly the 22 site-rooted failures.
var systems = []struct{ name, label string }{
	{"zk", "zk (ZooKeeper analog)"},
	{"dfs", "dfs (HDFS analog)"},
	{"tablestore", "tablestore (HBase analog)"},
	{"mq", "mq (Kafka analog)"},
	{"kvstore", "kvstore (Cassandra analog)"},
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

// label is a failure's row label, "ZK-2247 (f1)".
func label(s *failures.Scenario) string { return fmt.Sprintf("%s (%s)", s.Issue, s.ID) }

// cells renders a report's rounds and wall time, each "-" when it did not
// reproduce.
func cells(rep *core.Report) (rounds, elapsed string) {
	if !rep.Reproduced {
		return "-", "-"
	}
	return fmt.Sprint(rep.Rounds), fmtDur(rep.Elapsed)
}

// variant is one row or column of an experiment grid: the explorer options
// its cells run under, and the name their trace files carry.
type variant struct {
	name string
	opts core.Options
}

// runGrid is the one runner every table and figure goes through: every
// scenario under every variant, each cell BuildTarget, TraceDir capture and
// core.Reproduce on the worker pool, reports indexed [variant][scenario].
// A cell's trace file is <table>-<scenario>[-<variant>]. Each cell runs
// against the scenario's shared read-only Target, and parallel.Map returns
// results in input order, so no table depends on the worker count.
func runGrid(opt Options, table string, scens []*failures.Scenario, variants ...variant) ([][]*core.Report, error) {
	if opt.TraceDir != "" {
		if err := os.MkdirAll(opt.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("trace dir: %w", err)
		}
	}
	n := len(scens)
	flat, err := parallel.Map(opt.Workers, make([]struct{}, len(variants)*n), func(i int, _ struct{}) (*core.Report, error) {
		s, v := scens[i%n], variants[i/n] // v is this cell's own copy of the options
		tgt, err := s.BuildTarget()
		if err != nil {
			return nil, fmt.Errorf("build target %s: %w", s.ID, err)
		}
		if opt.TraceDir == "" {
			return core.Reproduce(tgt, v.opts), nil
		}
		name := table + "-" + s.ID
		if v.name != "" {
			name += "-" + v.name
		}
		f, err := os.Create(filepath.Join(opt.TraceDir, name+".trace.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		sink := trace.NewWriter(f)
		v.opts.Trace = sink
		rep := core.Reproduce(tgt, v.opts)
		if err := sink.Err(); err != nil {
			f.Close()
			return nil, fmt.Errorf("trace %s: %w", name, err)
		}
		return rep, f.Close()
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]*core.Report, len(variants))
	for vi := range grid {
		grid[vi] = flat[vi*n : (vi+1)*n]
	}
	return grid, nil
}

// median returns the median (the upper one of an even count) without
// touching the caller's slice, or the zero value of an empty one.
func median[T cmp.Ordered](vals []T) T {
	if len(vals) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[len(s)/2]
}

// reproducedRounds is the sorted round counts of the reports that
// reproduced: the sample of Table 2's summary rows and Table 11's columns.
func reproducedRounds(reps []*core.Report) []int {
	var rounds []int
	for _, rep := range reps {
		if rep.Reproduced {
			rounds = append(rounds, rep.Rounds)
		}
	}
	slices.Sort(rounds)
	return rounds
}

// roundStat renders stat of sorted rounds, or "-" when none reproduced.
func roundStat(rounds []int, stat func([]int) int) string {
	if len(rounds) == 0 {
		return "-"
	}
	return fmt.Sprint(stat(rounds))
}

// p90 is the nearest-rank 90th percentile of a sorted, non-empty slice.
func p90(sorted []int) int { return sorted[(9*len(sorted)+9)/10-1] }
