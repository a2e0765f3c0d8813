package eval

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks")

// experimentsPath is the paper-vs-measured record at the repository root.
const experimentsPath = "../../EXPERIMENTS.md"

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
	if *update {
		if err := os.WriteFile(experimentsPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
