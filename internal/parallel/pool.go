package parallel

import (
	"fmt"
	"sync"
)

// Pool is the long-running counterpart to Map: a fixed set of workers
// draining an unbounded task queue. Map fits the evaluation grid — a known
// slice, results by index, then done — while the reproduction server needs
// workers that outlive any one batch: jobs arrive over HTTP for the life
// of the daemon, and shutdown must stop cleanly between tasks.
//
// The queue is deliberately unbounded. Admission control belongs to the
// caller (the server bounds QUEUED jobs and sheds load with 429 before
// ever submitting here), and an accepted task must never be silently
// dropped by the execution layer — a bounded channel would have to choose
// between blocking the submitter and losing the task.
//
// A panic inside a task is recovered and handed to the pool's onPanic
// hook, so one poisoned job cannot take down the daemon's whole fleet —
// the same isolation contract Map gives grid cells.
type Pool struct {
	onPanic func(recovered any)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts workers goroutines draining the pool's queue. workers <= 0
// means Workers(0) (one per CPU). onPanic receives the recovered value of
// any task that panicked; nil ignores panics after containing them.
func NewPool(workers int, onPanic func(recovered any)) *Pool {
	p := &Pool{onPanic: onPanic}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < Workers(workers); w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues a task for the next free worker and reports whether the
// pool accepted it (false after Shutdown).
func (p *Pool) Submit(task func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.queue = append(p.queue, task)
	p.cond.Signal()
	return true
}

// Shutdown stops the pool: no new tasks are accepted, tasks not yet
// started are discarded, and Shutdown returns once every in-flight task
// has finished. Discarding is safe by construction for the server — every
// queued task is journaled state that the next daemon start re-admits —
// and callers that need drain-to-empty semantics can simply wait for their
// own completion signals before calling Shutdown.
func (p *Pool) Shutdown() {
	p.mu.Lock()
	p.closed = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker drains the queue until the pool closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.runIsolated(task)
	}
}

// runIsolated executes one task, containing any panic.
func (p *Pool) runIsolated(task func()) {
	defer func() {
		if r := recover(); r != nil && p.onPanic != nil {
			p.onPanic(fmt.Sprint(r))
		}
	}()
	task()
}
