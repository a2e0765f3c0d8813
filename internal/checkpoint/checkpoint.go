// Package checkpoint reads and writes crash-safe state files. A checkpoint
// is a versioned JSON envelope around an arbitrary payload:
//
//	{"kind":"server-job","version":1,"data":{...}}
//
// Save writes atomically — the payload goes to a temporary file in the
// destination directory, is synced, and is renamed over the target — so a
// process killed mid-write always leaves either the previous checkpoint or
// the new one on disk, never a torn file. Load validates the envelope
// (kind, version, payload presence) and returns an error for any malformed
// input; it must never panic, whatever bytes it is handed (the package's
// fuzz target enforces this).
//
// The server's job records and reports are stored in this envelope, each
// under its own kind.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

// Envelope is the on-disk frame around a checkpoint payload.
type Envelope struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version"`
	Data    json.RawMessage `json:"data"`
}

// syncs counts every fsync this process issued through SyncFile and
// SyncDir: the daemon's durability cost, in the unit it is paid in.
var syncs atomic.Int64

// Syncs reports the fsyncs issued so far by SyncFile and SyncDir.
func Syncs() int64 { return syncs.Load() }

// SyncFile fsyncs f, counting the call in Syncs.
func SyncFile(f *os.File) error {
	syncs.Add(1)
	return f.Sync()
}

// Save atomically and durably writes data as a checkpoint of the given
// kind and version: Stage, then an fsync of the parent directory. Stage
// alone is crash-safe, but its rename is not yet durable — the directory
// entry for path lives in the parent directory's data, and a power loss
// before that data reaches disk can roll the directory back to the
// pre-rename state even though the file contents were synced. With the
// parent fsynced, once Save returns the new checkpoint — not merely one
// of the two — is what a post-crash mount sees, which is what lets the
// server treat these envelopes as a write-ahead journal, not just a
// crash-safe cache.
func Save(path, kind string, version int, data any) error {
	if err := Stage(path, kind, version, data); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// Stage is Save without the directory fsync: a temporary file next to
// path receives the full encoding, is synced, and is renamed over path, so
// a kill at any instant leaves the previous checkpoint or the new one,
// never a torn file. A caller that stages several files into one directory
// makes them all durable with a single SyncDir afterwards; until then a
// power loss may keep any subset of the renames.
func Stage(path, kind string, version int, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s payload: %w", kind, err)
	}
	env, err := json.Marshal(Envelope{Kind: kind, Version: version, Data: raw})
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s envelope: %w", kind, err)
	}
	return StageBytes(path, append(env, '\n'))
}

// StageBytes is Stage for bytes that need no envelope: they go to a
// temporary file next to path, which is synced and renamed over path.
func StageBytes(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err := SyncFile(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory so a just-renamed or just-created entry in it
// is durable. Save calls it on the checkpoint's parent; callers that
// create the directories themselves (the server's per-job journal dirs)
// call it on THEIR parent for the same reason. Platforms whose directory
// handles reject Sync (it is optional in POSIX) report a benign error;
// those are ignored, matching what journaling databases do.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: sync dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := SyncFile(d); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("checkpoint: sync dir %s: %w", dir, err)
	}
	return nil
}

// Load reads a checkpoint and returns its payload after validating the
// envelope: the file must decode as JSON, carry the expected kind and
// version, and contain a payload. Every failure mode — missing file,
// truncation, corruption, kind or version skew — is an error; Load never
// panics.
func Load(path, kind string, version int) (json.RawMessage, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(raw, kind, version)
}

// Decode validates an in-memory envelope encoding; see Load.
func Decode(raw []byte, kind string, version int) (json.RawMessage, error) {
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt envelope: %w", err)
	}
	if env.Kind != kind {
		return nil, fmt.Errorf("checkpoint: kind %q, want %q", env.Kind, kind)
	}
	if env.Version != version {
		return nil, fmt.Errorf("checkpoint: version %d, want %d (regenerate the checkpoint)", env.Version, version)
	}
	if len(env.Data) == 0 || string(env.Data) == "null" {
		return nil, fmt.Errorf("checkpoint: %s envelope has no payload", kind)
	}
	return env.Data, nil
}
