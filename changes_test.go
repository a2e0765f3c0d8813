package anduril

import (
	"os"
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
// heading names a PR.
func TestDesignDocIsCurrent(t *testing.T) {
	const limit = 1000 // lines
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) > limit {
		t.Errorf("DESIGN.md is %d lines, over %d", len(lines), limit)
	}
	namesPR := regexp.MustCompile(`\bPRs? ?#?\d`)
	for i, line := range lines {
		if strings.HasPrefix(line, "#") && namesPR.MatchString(line) {
			t.Errorf("DESIGN.md:%d heading names a PR: %s", i+1, line)
		}
	}
}
