package server

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// The buffer is also the live feed: subscribers get a point-in-time
// snapshot plus a channel of every subsequent line, under one lock, so a
// follower sees each event exactly once and in order.
type traceBuffer struct {
	mu      sync.Mutex
	buf     []byte
	subs    map[int]chan []byte
	nextSub int
	closed  bool
	encErr  error // the first event that did not encode
}

// subBuffer is the per-subscriber channel depth. A follower that stalls
// past it is dropped (its channel closed) rather than allowed to block
// the search's hot path.
const subBuffer = 4096

func newTraceBuffer() *traceBuffer {
	return &traceBuffer{subs: map[int]chan []byte{}}
}

// Emit implements trace.Sink: encode, buffer, fan out to followers.
func (b *traceBuffer) Emit(ev *trace.Event) {
	line, err := json.Marshal(ev)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		if b.encErr == nil {
			b.encErr = fmt.Errorf("server: encode trace event: %w", err)
		}
		return
	}
	line = append(line, '\n')
	b.buf = append(b.buf, line...)
	for id, ch := range b.subs {
		select {
		case ch <- line:
		default: // stalled follower: drop it, never block the search
			close(ch)
			delete(b.subs, id)
		}
	}
}

// Snapshot returns the trace so far.
func (b *traceBuffer) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf)
}

// WriteFile writes the whole trace to path with checkpoint.StageBytes, so
// a kill at any instant leaves the previous file or the complete new one;
// the rename is durable once the caller fsyncs the directory. A trace with
// an event that did not encode is a trace the file can never hold:
// WriteFile returns that error and writes nothing. The search has
// returned, so the bytes can be written outside the lock.
func (b *traceBuffer) WriteFile(path string) error {
	b.mu.Lock()
	buf, err := b.buf, b.encErr
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return checkpoint.StageBytes(path, buf)
}

// Subscribe returns a point-in-time snapshot and a channel carrying
// every line emitted after it, in order with no gap or overlap. cancel
// detaches the follower; the channel is closed when the buffer closes
// (the attempt ended) or the follower stalls past subBuffer lines.
func (b *traceBuffer) Subscribe() (snapshot []byte, lines <-chan []byte, cancel func(), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, nil, nil, fmt.Errorf("server: trace closed")
	}
	ch := make(chan []byte, subBuffer)
	id := b.nextSub
	b.nextSub++
	b.subs[id] = ch
	cancel = func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if live, ok := b.subs[id]; ok {
			close(live)
			delete(b.subs, id)
		}
	}
	return bytes.Clone(b.buf), ch, cancel, nil
}

// Close ends every follower's stream.
func (b *traceBuffer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for id, ch := range b.subs {
		close(ch)
		delete(b.subs, id)
	}
}
