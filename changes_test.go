package anduril

import (
	"os"
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
