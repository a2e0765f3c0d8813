package server

import (
	"sync"

	"anduril/internal/checkpoint"
	"anduril/internal/trace"
)

// traceBuffer is a running job's trace: the trace.Sink its search emits
// into, kept in memory until the completion commit writes it to disk once
// (WriteFile). Nothing of a search that does not complete is kept — a
// drained or killed job is re-run from its spec, and re-emits the same
// bytes — so the trace on disk is always a finished search's.
//
// The buffer is also the live feed: one append-only log that every reader
// reads from its own offset (Read). The bytes below the log's length never
// change, so a reader holds them without a copy, and a slow reader holds up
// nobody: it is never dropped and never blocks the search.
type traceBuffer struct {
	mu     sync.Mutex
	log    appendLog
	enc    *trace.Writer // encodes into log; its first error stops the log
	closed bool
	wake   chan struct{} // made when a read finds nothing new; closed by the next Emit or Close
}

// appendLog is the io.Writer the encoder appends to. append writes past
// the length or into a new array, never below the length.
type appendLog []byte

func (l *appendLog) Write(p []byte) (int, error) {
	*l = append(*l, p...)
	return len(p), nil
}

func newTraceBuffer() *traceBuffer {
	b := &traceBuffer{}
	b.enc = trace.NewWriter(&b.log)
	return b
}

// Emit implements trace.Sink: encode onto the log, wake waiting readers.
func (b *traceBuffer) Emit(ev *trace.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.enc.Emit(ev)
	b.wakeReaders()
}

// Read returns the log's bytes from off on and whether the log is closed,
// so those bytes are its last. When nothing is new and the log is open it
// returns instead a channel the next Emit or Close closes.
func (b *traceBuffer) Read(off int) (p []byte, closed bool, more <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < len(b.log) || b.closed {
		return b.log[off:len(b.log):len(b.log)], b.closed, nil
	}
	if b.wake == nil {
		b.wake = make(chan struct{})
	}
	return nil, false, b.wake
}

// WriteFile writes the whole trace to path with checkpoint.StageBytes, so
// a kill at any instant leaves the previous file or the complete new one;
// the rename is durable once the caller fsyncs the directory. A trace with
// an event that did not encode is a trace the file can never hold:
// WriteFile returns that error and writes nothing.
func (b *traceBuffer) WriteFile(path string) error {
	b.mu.Lock()
	log, err := b.log, b.enc.Err()
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return checkpoint.StageBytes(path, log)
}

// Close marks the log closed and wakes every waiting reader.
func (b *traceBuffer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.wakeReaders()
}

func (b *traceBuffer) wakeReaders() {
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}
