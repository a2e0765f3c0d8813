package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Round int    `json:"round"`
	Note  string `json:"note"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	want := payload{Round: 7, Note: "after round 7"}
	if err := Save(path, "test-state", 3, want); err != nil {
		t.Fatal(err)
	}
	raw, err := Load(path, "test-state", 3)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestSaveOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	for round := 1; round <= 3; round++ {
		if err := Save(path, "test-state", 1, payload{Round: round}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := Load(path, "test-state", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Round != 3 {
		t.Fatalf("round %d survived, want the last write (3)", got.Round)
	}
}

// Save is Stage plus the directory fsync, and Syncs counts exactly those:
// a staged file is already loadable and cost one fsync, the SyncDir that
// makes a batch of stages durable one more, a Save two.
func TestStageIsSaveMinusDirSync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	before := Syncs()
	if err := Stage(path, "test-state", 1, payload{Round: 1}); err != nil {
		t.Fatal(err)
	}
	if got := Syncs() - before; got != 1 {
		t.Fatalf("Stage issued %d fsyncs, want 1", got)
	}
	if _, err := Load(path, "test-state", 1); err != nil {
		t.Fatalf("staged checkpoint does not load: %v", err)
	}
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "test-state", 1, payload{Round: 2}); err != nil {
		t.Fatal(err)
	}
	if got := Syncs() - before; got != 4 {
		t.Fatalf("Stage + SyncDir + Save issued %d fsyncs, want 4", got)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(leftovers) != 0 {
		t.Fatalf("temporary files left behind: %v", leftovers)
	}
}

// A process killed mid-write dies between creating the temporary file and
// the rename. Simulate every such state — a garbage temp file alongside a
// valid checkpoint — and verify the previous checkpoint stays readable.
func TestKillMidWriteLeavesPreviousReadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := Save(path, "test-state", 1, payload{Round: 4}); err != nil {
		t.Fatal(err)
	}
	// The dying writer left a partial temp file (same naming scheme Save
	// uses) that never got renamed.
	partial := filepath.Join(dir, "ck.json.tmp-99999")
	if err := os.WriteFile(partial, []byte(`{"kind":"test-state","ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := Load(path, "test-state", 1)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after simulated mid-write kill: %v", err)
	}
	var got payload
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Round != 4 {
		t.Fatalf("round %d, want 4", got.Round)
	}
	// A fresh Save still succeeds with the stale temp file present.
	if err := Save(path, "test-state", 1, payload{Round: 5}); err != nil {
		t.Fatal(err)
	}
}

// The server journals jobs as one envelope file per job directory
// (jobs/<key>/job.json). A daemon SIGKILLed mid-write dies with temp files
// strewn across several job directories at once; every directory must
// independently keep its previous record readable, and fresh Saves (the
// restarted daemon re-journaling state transitions) must succeed with the
// stale temp files still present.
func TestKillMidWriteJournalDirectory(t *testing.T) {
	root := t.TempDir()
	keys := []string{"job-a1", "job-b2", "job-c3"}
	for _, key := range keys {
		dir := filepath.Join(root, "jobs", key)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "job.json")
		if err := Save(path, "server-job", 1, payload{Round: 1, Note: key}); err != nil {
			t.Fatal(err)
		}
		// The dying daemon left partial temp files in every job directory.
		for i, junk := range []string{`{"kind":"server-jo`, "", `garbage bytes`} {
			partial := filepath.Join(dir, "job.json.tmp-"+strings.Repeat("9", i+3))
			if err := os.WriteFile(partial, []byte(junk), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, key := range keys {
		path := filepath.Join(root, "jobs", key, "job.json")
		raw, err := Load(path, "server-job", 1)
		if err != nil {
			t.Fatalf("job %s unreadable after simulated mid-write kill: %v", key, err)
		}
		var got payload
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Note != key {
			t.Fatalf("job %s holds record %q", key, got.Note)
		}
		// The restarted daemon re-journals the job's next state transition.
		if err := Save(path, "server-job", 1, payload{Round: 2, Note: key}); err != nil {
			t.Fatalf("re-journal %s: %v", key, err)
		}
	}
}

func TestLoadRejectsSkew(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := Save(path, "test-state", 2, payload{Round: 1}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		kind         string
		version      int
		wantFragment string
	}{
		{"version skew", "test-state", 1, "version 2, want 1"},
		{"kind skew", "other-state", 2, `kind "test-state"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(path, c.kind, c.version)
			if err == nil || !strings.Contains(err.Error(), c.wantFragment) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantFragment)
			}
		})
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":        "",
		"truncated":    `{"kind":"test-state","version":1,"data":{"rou`,
		"not json":     "round 7 note after",
		"null payload": `{"kind":"test-state","version":1,"data":null}`,
		"no payload":   `{"kind":"test-state","version":1}`,
		"wrong types":  `{"kind":1,"version":"x","data":[]}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, "bad.json")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path, "test-state", 1); err == nil {
				t.Fatalf("Load accepted malformed checkpoint %q", content)
			}
		})
	}
	if _, err := Load(filepath.Join(dir, "missing.json"), "test-state", 1); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

// FuzzDecode: whatever bytes a crashed or hostile writer left behind,
// Decode must return a payload or an error — never panic. Valid envelopes
// must round-trip their payload bytes.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"kind":"explorer-search","version":1,"data":{"round":3}}`))
	f.Add([]byte(`{"kind":"explorer-search","version":2,"data":{}}`))
	f.Add([]byte(`{"kind":"","version":0}`))
	f.Add([]byte(`{"kind":"explorer-search","version":1,"data":`)) // truncated
	f.Add([]byte(`null`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		data, err := Decode(raw, "explorer-search", 1)
		if err != nil {
			return
		}
		if len(data) == 0 {
			t.Fatal("Decode returned no error and no payload")
		}
		if !json.Valid(data) {
			t.Fatalf("Decode returned invalid JSON payload %q", data)
		}
	})
}
