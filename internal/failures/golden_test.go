package failures

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/failure_logs.golden")

// TestFailureLogsPinned holds every failure's production log — what
// BuildTarget hands the explorer — to testdata/failure_logs.golden: per
// failure, its entry count and a SHA-256 over the thread, level and
// message of every entry, in order. A parsed entry keeps no timestamp, so
// the three fields are all it carries. A change to a target, a workload, a
// root or the way the log run is made moves a line here.
func TestFailureLogsPinned(t *testing.T) {
	var b strings.Builder
	for _, s := range All() {
		tgt, err := s.BuildTarget()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, e := range tgt.FailureLog {
			fmt.Fprintf(h, "%s\t%s\t%s\n", e.Thread, e.Level, e.Msg)
		}
		fmt.Fprintf(&b, "%s %d %x\n", s.ID, len(tgt.FailureLog), h.Sum(nil))
	}
	path := filepath.Join("testdata", "failure_logs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (scripts/update_goldens.sh writes it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("failure logs moved; got\n%swant\n%s", got, want)
	}
}
