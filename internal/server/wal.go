package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"anduril/internal/checkpoint"
	"anduril/internal/trace"
)

// traceWAL is the job's trace as a write-ahead journal. It is the
// server's implementation of trace.Sink, and it solves the one ordering
// problem crash-safe resume leaves open: the engine's trace events and
// its checkpoint are two separate artifacts, and a kill between their
// writes must never leave the checkpoint AHEAD of the trace (the resumed
// search would then skip rounds the file never recorded, leaving a hole
// no recovery can fill).
//
// The discipline, in lockstep with the engine:
//
//   - Emit buffers encoded lines in memory, tagged with their round.
//     Nothing is written to disk between checkpoints.
//   - Flush(n) — the first half of executeOnce's periodic commit, whose
//     second half writes the checkpoint only if this one succeeded —
//     appends and fsyncs exactly the buffered lines of rounds ≤ n. Events
//     of a later, uncommitted round stay in memory; if the process dies or
//     the search is interrupted they are simply lost, and the resumed run
//     re-emits them identically.
//   - After a kill, the file is therefore always at or ahead of the
//     surviving checkpoint. openWAL trims it back: whole well-formed
//     lines up to the checkpoint's round are kept, everything after —
//     later rounds, an outcome, a torn tail from a mid-append kill — is
//     truncated. The resumed search appends the byte-identical suffix,
//     so at ANY kill point trace.jsonl concatenates to the
//     uninterrupted run's trace.
//   - FlushAll, called only when the search completes, commits the
//     remainder including the outcome line.
//   - An event that does not encode is a line the journal can never hold:
//     Emit keeps the error and every later Flush and FlushAll returns it
//     without writing, so no checkpoint lands over the missing line.
//
// The WAL is also the live feed: subscribers get a point-in-time
// snapshot (durable + buffered bytes) plus a channel of every subsequent
// line, under one lock, so a follower sees each event exactly once and
// in order. A follower's view is the engine's, not the disk's — it may
// include buffered events of an uncommitted round that a crash would
// discard.
type traceWAL struct {
	path string

	mu      sync.Mutex
	f       *os.File
	buf     []walEntry
	bufSize int
	subs    map[int]chan []byte
	nextSub int
	closed  bool
	encErr  error // the first event that did not encode
}

// walEntry is one buffered line and the round it belongs to (0 for
// pre-search events like free_run, flushed with the first commit).
type walEntry struct {
	round int
	line  []byte
}

// subBuffer is the per-subscriber channel depth. A follower that stalls
// past it is dropped (its channel closed) rather than allowed to block
// the search's hot path.
const subBuffer = 4096

// openWAL opens (creating if needed) the trace journal at path and
// recovers it to match the search checkpoint: with no usable checkpoint
// the search will start fresh, so the file is truncated to empty;
// otherwise every complete, well-formed, non-outcome line of rounds ≤
// ckRound is kept and the rest cut.
func openWAL(path string, ckRound int, haveCk bool) (*traceWAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: open trace journal: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("server: read trace journal: %w", err)
	}
	keep := 0
	if haveCk {
		keep = recoverPrefix(raw, ckRound)
	}
	if keep != len(raw) {
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return nil, fmt.Errorf("server: trim trace journal: %w", err)
		}
		if err := checkpoint.SyncFile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("server: trim trace journal: %w", err)
		}
	}
	if _, err := f.Seek(int64(keep), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: seek trace journal: %w", err)
	}
	return &traceWAL{path: path, f: f, subs: map[int]chan []byte{}}, nil
}

// recoverPrefix returns the byte length of the journal prefix that is
// consistent with a checkpoint at ckRound: complete lines only, rounds
// ≤ ckRound, no outcome (an outcome means the trace ran to completion
// but the job record didn't — replay re-derives it).
func recoverPrefix(raw []byte, ckRound int) int {
	keep := 0
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn tail from a mid-append kill
		}
		line := raw[off : off+nl]
		typ, round, ok := trace.LineMeta(line)
		if !ok || typ == trace.Outcome || round > ckRound {
			break
		}
		off += nl + 1
		keep = off
	}
	return keep
}

// Emit implements trace.Sink: encode, buffer, fan out to followers.
func (w *traceWAL) Emit(ev *trace.Event) {
	line, err := json.Marshal(ev)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if w.encErr == nil {
			w.encErr = fmt.Errorf("server: encode trace event: %w", err)
		}
		return
	}
	line = append(line, '\n')
	w.buf = append(w.buf, walEntry{round: ev.Round, line: line})
	w.bufSize += len(line)
	for id, ch := range w.subs {
		select {
		case ch <- line:
		default: // stalled follower: drop it, never block the search
			close(ch)
			delete(w.subs, id)
		}
	}
}

// Flush commits buffered lines of rounds ≤ round to disk (append +
// fsync). After an error the lines stay buffered and the next Flush
// retries the same prefix.
func (w *traceWAL) Flush(round int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for n < len(w.buf) && w.buf[n].round <= round {
		n++
	}
	return w.commitLocked(n)
}

// FlushAll commits every buffered line — the search is complete and the
// outcome must reach disk before the report is published.
func (w *traceWAL) FlushAll() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitLocked(len(w.buf))
}

// commitLocked writes the first n buffered entries and drops them from
// the buffer on success.
func (w *traceWAL) commitLocked(n int) error {
	if w.encErr != nil {
		return w.encErr
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, 0, 1<<12)
	for _, e := range w.buf[:n] {
		out = append(out, e.line...)
	}
	if _, err := w.f.Write(out); err != nil {
		return fmt.Errorf("server: append trace journal: %w", err)
	}
	if err := checkpoint.SyncFile(w.f); err != nil {
		return fmt.Errorf("server: sync trace journal: %w", err)
	}
	w.buf = append([]walEntry{}, w.buf[n:]...)
	w.bufSize = 0
	for _, e := range w.buf {
		w.bufSize += len(e.line)
	}
	return nil
}

// Reset discards the journal entirely — buffered and durable — for a
// fresh search after a rejected resume.
func (w *traceWAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf, w.bufSize, w.encErr = nil, 0, nil
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("server: reset trace journal: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("server: reset trace journal: %w", err)
	}
	return checkpoint.SyncFile(w.f)
}

// Snapshot returns the full trace so far: durable bytes plus the
// in-memory buffer.
func (w *traceWAL) Snapshot() ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapshotLocked()
}

func (w *traceWAL) snapshotLocked() ([]byte, error) {
	durable, err := os.ReadFile(w.path)
	if err != nil {
		return nil, fmt.Errorf("server: read trace journal: %w", err)
	}
	out := make([]byte, len(durable), len(durable)+w.bufSize)
	copy(out, durable)
	for _, e := range w.buf {
		out = append(out, e.line...)
	}
	return out, nil
}

// Subscribe returns a point-in-time snapshot and a channel carrying
// every line emitted after it, in order with no gap or overlap. cancel
// detaches the follower; the channel is closed when the WAL closes (job
// finished) or the follower stalls past subBuffer lines.
func (w *traceWAL) Subscribe() (snapshot []byte, lines <-chan []byte, cancel func(), err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, nil, nil, fmt.Errorf("server: trace journal closed")
	}
	snapshot, err = w.snapshotLocked()
	if err != nil {
		return nil, nil, nil, err
	}
	ch := make(chan []byte, subBuffer)
	id := w.nextSub
	w.nextSub++
	w.subs[id] = ch
	cancel = func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		if live, ok := w.subs[id]; ok {
			close(live)
			delete(w.subs, id)
		}
	}
	return snapshot, ch, cancel, nil
}

// Close releases the file and ends every follower's stream. Buffered
// lines of an uncommitted round are deliberately dropped — on an
// interrupt they belong to a round the checkpoint never admitted, and
// the resumed run re-emits them.
func (w *traceWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	for id, ch := range w.subs {
		close(ch)
		delete(w.subs, id)
	}
	return w.f.Close()
}
