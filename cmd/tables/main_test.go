package main

import (
	"bytes"
	"strings"
	"testing"
)

// Input the command cannot honour is a usage error (exit 2) with a message
// naming the offending flag, rejected before any table runs.
func TestRunRejectsWhatItCannotHonour(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown table", []string{"-table", "12"}, "-table 12"},
		{"negative table", []string{"-table", "-1"}, "-table -1"},
		{"unknown figure", []string{"-figure", "3"}, "-figure 3"},
		{"zero round cap", []string{"-max-rounds", "0"}, "-max-rounds"},
		{"negative round cap", []string{"-max-rounds", "-3"}, "-max-rounds"},
		{"zero seed", []string{"-seed", "0"}, "-seed"},
		{"negative workers", []string{"-j", "-1"}, "-j"},
		{"positional junk", []string{"-table", "7", "extra"}, "unexpected arguments"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != exitUsage {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, got, exitUsage, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr does not name %q:\n%s", c.wantErr, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before rejecting:\n%s", stdout.String())
			}
		})
	}
}
