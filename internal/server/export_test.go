package server

import (
	"context"
	"time"
)

// Executions reports how many search executions the server has started —
// the dedupe tests' observable: N identical submissions move it by one.
func (s *Server) Executions() int64 { return s.executions.Load() }

// WaitIdle blocks until no job is queued or executing, or ctx ends.
func (s *Server) WaitIdle(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.active == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}
