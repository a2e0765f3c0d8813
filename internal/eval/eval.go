// Package eval regenerates every table and figure of the paper's
// evaluation (§8 and the appendix) against the Go reproduction. Each
// TableN/FigureN function runs the corresponding experiment and returns a
// formatted table; cmd/tables and the repository-level benchmarks are thin
// wrappers around these.
package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tune the evaluation runs.
type Options struct {
	Seed      int64
	MaxRounds int // cap standing in for the paper's 24-hour limit

	// Workers fans independent experiment cells (failure × strategy or
	// parameter) across a worker pool: 0 = one worker per CPU
	// (GOMAXPROCS), 1 = fully serial, N = exactly N workers. Results are
	// assembled in input order, so every table's deterministic content is
	// byte-identical across worker counts for a fixed seed.
	Workers int

	// NoTiming renders every wall-clock duration cell as "*". Durations
	// are measurements, not functions of the seed — they differ between
	// any two runs, serial or not — so masking them is what makes full
	// table output byte-stable (used by the -j equivalence tests and the
	// cmd/tables -no-time flag). Round counts, the paper's efficiency
	// metric, are unaffected.
	NoTiming bool

	// TraceDir, when non-empty, writes one JSONL explorer trace per
	// experiment cell into this directory (created if absent), named
	// <table>-<failure>[-<strategy>].trace.jsonl. Each cell owns its file,
	// so capture works under any worker count; trace events carry only
	// seed-determined data, so the files are byte-identical across -j
	// settings for a fixed seed (the CI determinism job diffs them).
	TraceDir string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 500
	}
	return o
}

// dur renders a duration cell, honoring NoTiming.
func (o Options) dur(d time.Duration) string {
	if o.NoTiming {
		return "*"
	}
	return fmtDur(d)
}

// systems lists the five target systems in Table 1 order. The dyn target
// (Dynamo analog, f26–f29) is intentionally absent: its scenarios carry
// non-nil FaultClasses, so SiteDataset excludes them and the paper's
// tables keep reporting over exactly the 22 site-rooted failures.
var systems = []string{"zk", "dfs", "tablestore", "mq", "kvstore"}

// systemLabel maps internal names to the analog of the paper's systems.
var systemLabel = map[string]string{
	"zk":         "zk (ZooKeeper analog)",
	"dfs":        "dfs (HDFS analog)",
	"tablestore": "tablestore (HBase analog)",
	"mq":         "mq (Kafka analog)",
	"kvstore":    "kvstore (Cassandra analog)",
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

// siteBySystem returns one system's scenarios restricted to the paper's
// site-only evaluation dataset — the per-system tables (1 and 4) report
// means and medians over the 22 failures, so the env-rooted scenarios
// must not dilute them.
func siteBySystem(sys string) []*failures.Scenario {
	var out []*failures.Scenario
	for _, s := range failures.BySystem(sys) {
		if s.FaultClasses == nil { // the Table 5 dataset: site-rooted only
			out = append(out, s)
		}
	}
	return out
}

// cellTrace attaches a JSONL trace sink to one experiment cell's explorer
// options when TraceDir is set. The returned close func flushes the file
// and surfaces any write error; with TraceDir unset it is a no-op and the
// options stay untouched (tracing disabled, zero overhead).
func (o Options) cellTrace(opts *core.Options, name string) (func() error, error) {
	if o.TraceDir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(o.TraceDir, name+".trace.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	sink := trace.NewWriter(f)
	opts.Trace = sink
	return func() error {
		if err := sink.Err(); err != nil {
			f.Close()
			return fmt.Errorf("trace %s: %w", name, err)
		}
		return f.Close()
	}, nil
}

// cell is one experiment cell: a hermetic, seeded reproduction of one
// scenario under its own options. name labels the cell's trace file
// (Options.TraceDir).
type cell struct {
	name string
	s    *failures.Scenario
	opts core.Options
}

// datasetCells is one cell per scenario under the same options, named
// <label>-<id>.
func datasetCells(label string, scens []*failures.Scenario, opts core.Options) []cell {
	cells := make([]cell, len(scens))
	for i, s := range scens {
		cells[i] = cell{label + "-" + s.ID, s, opts}
	}
	return cells
}

// runCells is the one cell runner every table and figure goes through:
// BuildTarget, TraceDir capture, core.Reproduce, on the worker pool. Each
// cell runs against the scenario's shared read-only Target, and
// parallel.Map returns results in input order, so the assembled tables do
// not depend on the worker count.
func runCells(opt Options, cells []cell) ([]*core.Report, error) {
	return parallel.Map(opt.Workers, cells, func(_ int, c cell) (*core.Report, error) {
		tgt, err := c.s.BuildTarget()
		if err != nil {
			return nil, fmt.Errorf("build target %s: %w", c.s.ID, err)
		}
		opts := c.opts
		done, err := opt.cellTrace(&opts, c.name)
		if err != nil {
			return nil, err
		}
		rep := core.Reproduce(tgt, opts)
		return rep, done()
	})
}

// medianInt returns the median without touching the caller's slice: cells
// computed under the worker pool reuse their round/duration slices, so
// sorting in place would silently reorder an aliased caller slice.
func medianInt(vals []int) int {
	if len(vals) == 0 {
		return 0
	}
	s := make([]int, len(vals))
	copy(s, vals)
	sort.Ints(s)
	return s[len(s)/2]
}

// medianDur is medianInt for durations; same copy-first contract.
func medianDur(vals []time.Duration) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	s := make([]time.Duration, len(vals))
	copy(s, vals)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
