package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Flag discipline: every invalid invocation is exit 2 with a message
// naming the offending flag; nothing touches disk or the network first.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     flagConfig
		wantErr string // "" = valid
	}{
		{"valid", flagConfig{addr: ":0", dataDir: "/tmp/x", queue: 1}, ""},
		{"zero workers is per-CPU", flagConfig{addr: ":0", dataDir: "/tmp/x", workers: 0, queue: 8}, ""},
		{"missing data dir", flagConfig{addr: ":0", queue: 1}, "-data-dir"},
		{"empty addr", flagConfig{dataDir: "/tmp/x", queue: 1}, "-addr"},
		{"negative workers", flagConfig{addr: ":0", dataDir: "/tmp/x", workers: -1, queue: 1}, "-workers"},
		{"zero queue", flagConfig{addr: ":0", dataDir: "/tmp/x", queue: 0}, "-queue"},
		{"negative queue", flagConfig{addr: ":0", dataDir: "/tmp/x", queue: -5}, "-queue"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("validate() = %v, want error naming %s", err, c.wantErr)
			}
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	closed := make(chan struct{})
	close(closed)

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-bogus"}, exitUsage},
		{"missing data dir", []string{"-addr", ":0"}, exitUsage},
		{"bad queue", []string{"-data-dir", t.TempDir(), "-queue", "-1"}, exitUsage},
		{"positional junk", []string{"-data-dir", t.TempDir(), "extra"}, exitUsage},
		{"clean start and drain", []string{"-data-dir", t.TempDir(), "-addr", "127.0.0.1:0"}, exitOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if got := run(c.args, &stderr, closed); got != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, got, c.want, stderr.String())
			}
		})
	}
}

// A data dir that cannot host a journal is a runtime failure (1), not a
// usage error: the flags were fine, the environment was not.
func TestRunJournalFailureIsRuntimeError(t *testing.T) {
	dir := t.TempDir()
	// Occupy the jobs path with a FILE so MkdirAll fails.
	blocker := filepath.Join(dir, "jobs")
	if err := writeFile(blocker, "not a directory"); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	closed := make(chan struct{})
	close(closed)
	if got := run([]string{"-data-dir", dir, "-addr", "127.0.0.1:0"}, &stderr, closed); got != exitRuntime {
		t.Fatalf("run = %d, want %d\nstderr: %s", got, exitRuntime, stderr.String())
	}
}

// A taken port is likewise runtime, not usage.
func TestRunListenFailureIsRuntimeError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stderr bytes.Buffer
	closed := make(chan struct{})
	close(closed)
	args := []string{"-data-dir", t.TempDir(), "-addr", ln.Addr().String()}
	if got := run(args, &stderr, closed); got != exitRuntime {
		t.Fatalf("run = %d, want %d\nstderr: %s", got, exitRuntime, stderr.String())
	}
}

// writeFile is a tiny helper kept local so the test file stays
// dependency-free.
func writeFile(path, contents string) error {
	return os.WriteFile(path, []byte(contents), 0o644)
}
