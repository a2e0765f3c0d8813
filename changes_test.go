package anduril

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestChangesEntriesAreShort: CHANGES.md is one line per PR saying what
// changed, the number it claims against its base and what it deleted. The
// measurements behind a number live in DESIGN.md, EXPERIMENTS.md or the
// commit, so an entry that outgrows the limit is carrying them.
func TestChangesEntriesAreShort(t *testing.T) {
	const limit = 1400 // characters
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		entries++
		if n := utf8.RuneCountInString(line); n > limit {
			name, _, _ := strings.Cut(line, ":")
			t.Errorf("CHANGES.md:%d (%s) is %d characters, over %d", i+1, name, n, limit)
		}
	}
	if entries == 0 {
		t.Fatal("CHANGES.md has no entries")
	}
}

// TestDesignDocIsCurrent: DESIGN.md describes the design as it is. Before and
// after numbers and the story of how a part got its shape belong to
// CHANGES.md and git log, so the document stays under a size limit and no
// heading names a PR. It and the two documents a reader meets first,
// README.md and EXPERIMENTS.md, name only what exists: the last segment of
// every backticked identifier (`name`, `pkg.Name`, either with `()`) occurs
// as a word in some Go file — in code, a string or a comment, where the
// paper's own names live.
func TestDesignDocIsCurrent(t *testing.T) {
	const limit = 1000 // DESIGN.md lines
	word := regexp.MustCompile(`\w+`)
	goWords := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Ext(path) != ".go" {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, w := range word.FindAllString(string(src), -1) {
			goWords[w] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	namesPR := regexp.MustCompile(`\bPRs? ?#?\d`)
	ident := regexp.MustCompile("`" + `([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?` + "`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if doc == "DESIGN.md" && len(lines) > limit {
			t.Errorf("DESIGN.md is %d lines, over %d", len(lines), limit)
		}
		for i, line := range lines {
			if doc == "DESIGN.md" && strings.HasPrefix(line, "#") && namesPR.MatchString(line) {
				t.Errorf("DESIGN.md:%d heading names a PR: %s", i+1, line)
			}
			for _, m := range ident.FindAllStringSubmatch(line, -1) {
				if last := m[1][strings.LastIndexByte(m[1], '.')+1:]; !goWords[last] {
					t.Errorf("%s:%d names `%s`, but no Go file has %q", doc, i+1, m[1], last)
				}
			}
		}
	}
}
