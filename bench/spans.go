package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one op share Op; Parent is the
// span that caused this one (0 for the op's root).
type span struct {
	ID     int64
	Parent int64
	Op     int64
	Name   string
	Start  time.Time
	Dur    time.Duration

	// Synth marks a span whose duration the program reported (a field of
	// core.Report) rather than one the benchmark clocked itself; its start
	// is laid out after its preceding sibling, not observed.
	Synth bool

	// Overlay marks a span that runs inside its siblings (sink emission
	// happens during the engine's own phases), so it is left out of the
	// parent's self time instead of being subtracted twice.
	Overlay bool

	Attrs map[string]any
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

// add records a span and returns its id.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s.ID = r.next
	if s.Parent == 0 {
		s.Op = s.ID
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// spanLine is the on-disk form of a span, one JSON object per line.
type spanLine struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	Op      int64          `json:"op"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	SelfUS  float64        `json:"self_us"`
	Synth   bool           `json:"synth,omitempty"`
	Overlay bool           `json:"overlay,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// write stores every span as JSON Lines. A span's self time is its
// duration minus its direct, non-overlay children.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 && !s.Overlay {
			children[s.Parent] += s.Dur
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var origin time.Time
	if len(r.spans) > 0 {
		origin = r.spans[0].Start
	}
	for _, s := range r.spans {
		self := s.Dur - children[s.ID]
		if self < 0 {
			self = 0
		}
		line := spanLine{
			ID: s.ID, Parent: s.Parent, Op: s.Op, Name: s.Name,
			StartUS: s.Start.Sub(origin).Microseconds(),
			DurUS:   float64(s.Dur.Nanoseconds()) / 1e3,
			SelfUS:  float64(self.Nanoseconds()) / 1e3,
			Synth:   s.Synth, Overlay: s.Overlay, Attrs: s.Attrs,
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
