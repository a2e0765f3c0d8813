package eval

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"anduril/internal/trace"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks")

// experimentsPath is the paper-vs-measured record at the repository root,
// changesPath the one-line-per-change log beside it.
const (
	experimentsPath = "../../EXPERIMENTS.md"
	changesPath     = "../../CHANGES.md"
)

// blockStart is a generated block's opening line: it names the command
// whose output the block holds, up to the next blockEnd line.
var blockStart = regexp.MustCompile(`^<!-- go run \./cmd/tables -(table|figure) (\d+) -no-time -->\n$`)

const blockEnd = "<!-- end -->\n"

// Every measured table in EXPERIMENTS.md is a generated block, and every
// generator has exactly one: the block must equal what its command prints
// at the default options with wall-time columns left out. -update rewrites
// the blocks in place.
func TestExperimentsMatchTables(t *testing.T) {
	data, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	var out strings.Builder
	var seen []string
	for i := 0; i < len(lines); i++ {
		out.WriteString(lines[i])
		m := blockStart.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		cmd := fmt.Sprintf("-%s %d", m[1], n)
		gi := slices.IndexFunc(Generators, func(g Generator) bool { return g.Flag == m[1] && g.N == n })
		end := slices.Index(lines[i+1:], blockEnd)
		switch {
		case gi < 0:
			t.Fatalf("EXPERIMENTS.md:%d: no generator for %s", i+1, cmd)
		case end < 0:
			t.Fatalf("EXPERIMENTS.md:%d: block %s has no %q", i+1, cmd, strings.TrimSpace(blockEnd))
		case slices.Contains(seen, cmd):
			t.Fatalf("EXPERIMENTS.md:%d: second block for %s", i+1, cmd)
		}
		seen = append(seen, cmd)
		tbl, err := Generators[gi].Run(Options{NoTiming: true})
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		want := strings.SplitAfter(tbl.Render(), "\n")
		want = want[:len(want)-1] // SplitAfter's empty tail
		got := lines[i+1 : i+1+end]
		if m[1] == "table" && n == 11 {
			for _, cell := range unlistedLosses(got, want, newestEntry(t)) {
				t.Errorf("Table 11 cell %s lost reproductions, gained %s or %s ends or raised its median; CHANGES.md's newest entry must name it (as %s) and say why",
					cell, trace.ReasonExhausted, trace.ReasonWindowUnreached, cell)
			}
		}
		if d := firstDiff(got, want); d >= 0 && !*update {
			t.Errorf("EXPERIMENTS.md:%d: block drifted from `go run ./cmd/tables %s -no-time`\n  block: %q\n  table: %q\n(rewrite with scripts/update_goldens.sh)",
				i+2+d, cmd, at(got, d), at(want, d))
		}
		out.WriteString(strings.Join(want, ""))
		i += end
	}
	if len(seen) != len(Generators) {
		t.Errorf("EXPERIMENTS.md has blocks for %v; want one for each of the %d generators", seen, len(Generators))
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(experimentsPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// sweepCell is what the contract reads of one Table 11 row.
type sweepCell struct{ reproduced, median, exhausted, unreached int }

var failureID = regexp.MustCompile(`\((f\d+)\)$`)

// sweepCells parses a rendered Table 11 by cell name. A '-' median (nothing
// reproduced) reads as worse than any number of rounds.
func sweepCells(lines []string) map[string]sweepCell {
	cells := map[string]sweepCell{}
	var col map[string]int
	for _, line := range lines {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		f := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range f {
			f[i] = strings.TrimSpace(f[i])
		}
		if col == nil {
			col = map[string]int{}
			for i, name := range f {
				col[name] = i
			}
			continue
		}
		id := failureID.FindStringSubmatch(f[col["Failure"]])
		if id == nil {
			continue
		}
		var c sweepCell
		fmt.Sscanf(f[col["Reproduced"]], "%d/", &c.reproduced)
		c.exhausted, _ = strconv.Atoi(f[col[trace.ReasonExhausted]])
		c.unreached, _ = strconv.Atoi(f[col[trace.ReasonWindowUnreached]])
		c.median, _ = strconv.Atoi(f[col["Median"]])
		if f[col["Median"]] == "-" {
			c.median = math.MaxInt
		}
		cells[id[1]+"/"+f[col["Mode"]]] = c
	}
	return cells
}

// unlistedLosses lists, sorted, the cells of the committed Table 11 that
// the regenerated one makes worse and entry does not name. Table 11 is the
// efficacy contract: a (failure, mode) cell is worse when it reproduces
// fewer of its searches, ends more of them fault-space-exhausted or
// window-unreached, or takes a higher median, and a change that makes one worse names it, as
// <failure>/<mode> (f3/occurrence), in its CHANGES.md entry; until it does,
// the block check fails and -update writes nothing. There is no tolerance:
// a trajectory change that only reshuffles which seeds miss is named too.
func unlistedLosses(committed, regenerated []string, entry string) []string {
	before := sweepCells(committed)
	var out []string
	for cell, now := range sweepCells(regenerated) {
		was, ok := before[cell]
		if !ok || (now.reproduced >= was.reproduced && now.exhausted <= was.exhausted &&
			now.unreached <= was.unreached && now.median <= was.median) {
			continue
		}
		if !regexp.MustCompile(`(^|[^\w/])` + regexp.QuoteMeta(cell) + `\b`).MatchString(entry) {
			out = append(out, cell)
		}
	}
	slices.Sort(out)
	return out
}

// newestEntry is CHANGES.md's newest entry: its last line that starts with
// "PR ".
func newestEntry(t *testing.T) string {
	data, err := os.ReadFile(changesPath)
	if err != nil {
		t.Fatal(err)
	}
	entry := ""
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "PR ") {
			entry = line
		}
	}
	return entry
}

// firstDiff is the index of the first line where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// at is lines[i], or "" past the end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// TestSweepContractNamesWorseCells: the efficacy contract flags exactly the
// cells a regenerated Table 11 makes worse, in each of the four ways, until
// the newest CHANGES.md entry names them.
func TestSweepContractNamesWorseCells(t *testing.T) {
	table := func(f3occ, f3path, f4occ string) []string {
		return []string{
			"| Failure | Mode | Reproduced | Min | Median | p90 | Max | fault-space-exhausted | window-unreached | round-cap | trial-error |\n",
			"|---|---|---|---|---|---|---|---|---|---|---|\n",
			"| ZK-4203 (f3) | occurrence | " + f3occ + " | 1 | 0 |\n",
			"| ZK-4203 (f3) | path | " + f3path + " | 1 | 0 |\n",
			"| ZK-3006 (f4) | occurrence | " + f4occ + " | 0 | 0 |\n",
		}
	}
	committed := table("31/32 | 1 | 2 | 10 | 32 | 0 | 0", "31/32 | 1 | 2 | 5 | 8 | 0 | 0", "32/32 | 3 | 3 | 7 | 7 | 0 | 0")
	for _, c := range []struct {
		name        string
		regenerated []string
		entry       string
		want        []string
	}{
		{"unchanged", committed, "", nil},
		{"better", table("32/32 | 1 | 1 | 9 | 30 | 0 | 0", "32/32 | 1 | 2 | 5 | 8 | 0 | 0", "32/32 | 1 | 2 | 7 | 7 | 0 | 0"), "", nil},
		{"fewer reproduced", table("30/32 | 1 | 2 | 10 | 32 | 0 | 0", "31/32 | 1 | 2 | 5 | 8 | 0 | 0", "32/32 | 3 | 3 | 7 | 7 | 0 | 0"), "", []string{"f3/occurrence"}},
		{"more exhausted", table("31/32 | 1 | 2 | 10 | 32 | 0 | 0", "31/32 | 1 | 2 | 5 | 8 | 1 | 0", "32/32 | 3 | 3 | 7 | 7 | 0 | 0"), "", []string{"f3/path"}},
		{"more unreached", table("31/32 | 1 | 2 | 10 | 32 | 0 | 1", "31/32 | 1 | 2 | 5 | 8 | 0 | 0", "32/32 | 3 | 3 | 7 | 7 | 0 | 0"), "", []string{"f3/occurrence"}},
		{"higher median", table("31/32 | 1 | 2 | 10 | 32 | 0 | 0", "31/32 | 1 | 2 | 5 | 8 | 0 | 0", "32/32 | 3 | 4 | 7 | 7 | 0 | 0"), "", []string{"f4/occurrence"}},
		{"none reproduced", table("0/32 | - | - | - | - | 0 | 0", "31/32 | 1 | 2 | 5 | 8 | 0 | 0", "32/32 | 3 | 3 | 7 | 7 | 0 | 0"), "", []string{"f3/occurrence"}},
		{"named", table("30/32 | 1 | 2 | 10 | 32 | 0 | 0", "31/32 | 1 | 2 | 5 | 8 | 1 | 0", "32/32 | 3 | 3 | 7 | 7 | 0 | 0"),
			"PR 9: f3/occurrence and f3/path lose a seed each to the new order", nil},
		{"another cell named", table("30/32 | 1 | 2 | 10 | 32 | 0 | 0", "31/32 | 1 | 2 | 5 | 8 | 0 | 0", "32/32 | 3 | 3 | 7 | 7 | 0 | 0"),
			"PR 9: f33/occurrence and xf3/occurrence move", []string{"f3/occurrence"}},
	} {
		if got := unlistedLosses(committed, c.regenerated, c.entry); !slices.Equal(got, c.want) {
			t.Errorf("%s: flagged %v, want %v", c.name, got, c.want)
		}
	}
}
