// Package des implements a deterministic discrete-event simulation kernel.
//
// All five target distributed systems in this repository run on top of this
// kernel. A Sim owns a virtual clock and an event queue; "threads" of the
// simulated systems are named actors whose work is broken into events.
// Determinism: given the same seed and the same sequence of Schedule calls,
// a Sim executes events in exactly the same order, which makes every fault
// injection round replayable.
//
// The kernel is intentionally small: events, timers, condition variables
// (Cond) for blocking-style code, and per-actor bookkeeping used to detect
// stuck threads (a primary failure symptom in the paper's dataset).
package des

import (
	"context"
	"math/rand"
	"sort"
	"time"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Millisecond and friends convert familiar durations into virtual time.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a time.Duration into virtual Time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Event is a unit of work executed at a virtual instant on behalf of a
// named actor (the simulated thread).
//
// Events are pooled: once executed (or skipped as cancelled) an event
// returns to the Sim's freelist and is reused by a later Schedule, so
// steady-state scheduling allocates nothing. gen guards stale cancel
// handles across reuse: each recycling bumps it, and a Timer handed out
// under an older generation becomes a no-op.
type event struct {
	at       Time
	seq      uint64 // tie-breaker: FIFO among events at the same instant
	gen      uint64 // reuse generation, see above
	path     int32  // path-tree node of the event's call context (see path.go)
	actor    string
	fn       func()
	argFn    func(interface{}) // set instead of fn by PostArg/ScheduleArg
	arg      interface{}
	canceled bool
}

// eventQueue is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than container/heap because the dispatch loop pushes and pops an
// event per simulated step: the concrete sift functions avoid the
// interface-method calls the stdlib heap makes for every comparison and
// swap. (at, seq) is a strict total order — seq is unique — so the pop
// sequence is the fully sorted event order no matter how the heap was
// shaped, exactly as before.
type eventQueue []*event

// eventBefore is the dispatch order: time, then scheduling sequence.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventBefore(h[r], h[l]) {
			m = r
		}
		if !eventBefore(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// Sim is a single deterministic simulation run.
type Sim struct {
	now     Time
	seq     uint64
	queue   eventQueue
	rng     *rand.Rand
	current string // actor whose event is executing

	executed int

	// free is the event freelist: executed and cancelled events are
	// recycled here instead of being left to the garbage collector. The
	// pool is per-Sim, so runs stay hermetic and deterministic.
	free []*event

	// blocked tracks actors waiting on a Cond, keyed by actor name, with a
	// human-readable label of what they are waiting for. It backs the
	// "thread stuck at X" oracles.
	blocked map[string]string

	// EventBudget, when positive, caps how many events a single Run call may
	// execute. A zero-delay self-scheduling loop never advances virtual time,
	// so the horizon alone cannot stop it; the budget is the watchdog that
	// bounds such livelocks. Zero means unlimited.
	EventBudget int
	budgetHit   bool

	// watch, when non-nil, is polled during Run so a cancelled context can
	// interrupt a long simulation from outside virtual time.
	watch    context.Context
	watchHit bool

	// Path tracking (see path.go): off by default, so occurrence-mode
	// runs carry zero per-event path cost beyond copying one int32.
	pathTracking bool
	curPath      int32 // path node of the executing event, 0 outside dispatch
	pathNodes    []pathNode
	pathSeq      map[uint64]int32 // keyed by parent node << 32 | label id
	pathLabels   map[string]pathLabel
}

// New creates a simulation with a deterministic RNG seed. Its source draws
// the stream of rand.NewSource(seed) (source.go).
func New(seed int64) *Sim {
	src := new(source)
	src.Seed(seed)
	return &Sim{rng: rand.New(src), blocked: make(map[string]string)}
}

// Reset returns the simulation to the state New(seed) builds, on the memory
// it already owns: the event free list and queue array, the random source
// (re-seeded, which restarts its stream exactly), the maps, the emptied
// call tree. The send-label table is kept whole: a label's id only keys the
// sequence counters, so the run that first met it does not matter. Pending
// events are released, so nothing of the finished run stays reachable
// through the kernel, and every Timer handed out before is a no-op. A
// search recycles its rounds' simulations this way; what the next run
// computes does not depend on it.
func (s *Sim) Reset(seed int64) {
	for i, e := range s.queue {
		s.release(e)
		s.queue[i] = nil
	}
	clear(s.blocked)
	clear(s.pathSeq)
	*s = Sim{
		queue: s.queue[:0], rng: s.rng, free: s.free, blocked: s.blocked,
		pathNodes: s.pathNodes[:0], pathSeq: s.pathSeq, pathLabels: s.pathLabels,
	}
	s.rng.Seed(seed)
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Current returns the name of the actor whose event is executing, or ""
// outside event dispatch.
func (s *Sim) Current() string { return s.current }

// Executed reports how many events have run so far.
func (s *Sim) Executed() int { return s.executed }

// alloc takes an event from the freelist; when it is empty a whole chunk
// of events is carved from one backing array, so a run's event population
// costs a handful of allocations rather than one per event.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	chunk := make([]event, 64)
	for i := range chunk[1:] {
		s.free = append(s.free, &chunk[1+i])
	}
	return &chunk[0]
}

// release recycles a finished event: the closure reference is dropped so
// the pool never pins captured state, and the generation bump turns any
// outstanding cancel handle for this event into a no-op.
func (s *Sim) release(e *event) {
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	e.canceled = false
	e.gen++
	s.free = append(s.free, e)
}

// post enqueues one event, drawing from the freelist.
func (s *Sim) post(actor string, delay Time, fn func()) *event {
	if delay < 0 {
		delay = 0
	}
	e := s.alloc()
	e.at = s.now + delay
	s.seq++
	e.seq = s.seq
	e.path = s.curPath // inherit the poster's call context
	e.actor = actor
	e.fn = fn
	s.queue.push(e)
	return e
}

// Schedule runs fn on behalf of actor after delay. It hands out no
// handle — nearly every caller (periodic ticks, message deliveries,
// workload steps) never cancels; one that may uses ScheduleArg.
func (s *Sim) Schedule(actor string, delay Time, fn func()) { s.post(actor, delay, fn) }

// Post is Schedule under its former name.
//
// Deprecated: kept only because the frozen benchmark harness
// (bench/probes.go) calls it; nothing else in the module does.
func (s *Sim) Post(actor string, delay Time, fn func()) { s.post(actor, delay, fn) }

// Timer is a cancellable handle to one scheduled event. It is a plain
// value — returning it allocates nothing — and the generation check makes
// Cancel on an executed (and possibly recycled) event a no-op. The zero
// Timer is a valid no-op.
type Timer struct {
	e   *event
	gen uint64
}

// Cancel marks the timer's event as cancelled if it has not executed yet.
func (t Timer) Cancel() {
	if t.e != nil && t.e.gen == t.gen {
		t.e.canceled = true
	}
}

// postArg enqueues an event that calls fn(arg) — the argument travels in
// the pooled event itself, so callers with per-event state (e.g. message
// deliveries) can pass a struct to a shared top-level function instead of
// building a fresh closure per event.
func (s *Sim) postArg(actor string, delay Time, fn func(interface{}), arg interface{}) *event {
	e := s.post(actor, delay, nil)
	e.argFn = fn
	e.arg = arg
	return e
}

// PostArg is Schedule for an argument-carrying event.
func (s *Sim) PostArg(actor string, delay Time, fn func(interface{}), arg interface{}) {
	s.postArg(actor, delay, fn, arg)
}

// ScheduleArg is PostArg returning the handle that cancels the event.
func (s *Sim) ScheduleArg(actor string, delay Time, fn func(interface{}), arg interface{}) Timer {
	e := s.postArg(actor, delay, fn, arg)
	return Timer{e: e, gen: e.gen}
}

// Go is Schedule with zero delay: the actor's next runnable step.
func (s *Sim) Go(actor string, fn func()) { s.post(actor, 0, fn) }

// Every schedules fn on actor repeatedly with the given period until the
// returned cancel function is called or the simulation ends.
func (s *Sim) Every(actor string, period Time, fn func()) (cancel func()) {
	ev := &everyState{s: s, actor: actor, period: period, fn: fn}
	s.postArg(actor, period, runEvery, ev)
	return ev.stop
}

// everyState carries a recurring timer through its argFn events: one
// allocation per Every call instead of a closure chain.
type everyState struct {
	s       *Sim
	actor   string
	period  Time
	fn      func()
	stopped bool
}

func (ev *everyState) stop() { ev.stopped = true }

func runEvery(x interface{}) {
	ev := x.(*everyState)
	if ev.stopped {
		return
	}
	ev.fn()
	if !ev.stopped {
		ev.s.postArg(ev.actor, ev.period, runEvery, ev)
	}
}

// Jitter returns a random virtual duration in [0, max), for modelling
// scheduling and network variance deterministically.
func (s *Sim) Jitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(s.rng.Int63n(int64(max)))
}

// Watch installs a context polled during Run; once ctx is cancelled the
// current Run call returns after the in-flight event. Pass nil to clear.
func (s *Sim) Watch(ctx context.Context) { s.watch = ctx }

// BudgetExhausted reports whether a Run call stopped because it hit
// EventBudget rather than draining or reaching the horizon.
func (s *Sim) BudgetExhausted() bool { return s.budgetHit }

// Interrupted reports whether a Run call stopped because the watched
// context was cancelled.
func (s *Sim) Interrupted() bool { return s.watchHit }

// Run executes events until the queue drains or the horizon passes. It
// returns the number of events executed.
//
// Two watchdogs bound a Run call that would otherwise never end: when
// EventBudget is positive, Run stops after executing that many events
// (BudgetExhausted then reports true); when a Watch context is installed
// and cancelled, Run stops at the next poll (Interrupted reports true).
// Both flags describe the current Run call only: each call clears them on
// entry, so a sim re-entered after a budget-exhausted or interrupted run
// (e.g. a crash/restart re-entry) reports fresh verdicts.
func (s *Sim) Run(horizon Time) int {
	s.budgetHit = false
	s.watchHit = false
	start := s.executed
	for {
		if s.EventBudget > 0 && s.executed-start >= s.EventBudget {
			s.budgetHit = true
			break
		}
		// Poll the watch context cheaply: every 1024 events, not every event.
		if s.watch != nil && (s.executed-start)&1023 == 0 && s.watch.Err() != nil {
			s.watchHit = true
			break
		}
		if len(s.queue) == 0 {
			break
		}
		e := s.queue.pop()
		if e.at > horizon {
			// Put it back; simulation paused at the horizon.
			s.queue.push(e)
			break
		}
		if e.canceled {
			s.release(e)
			continue
		}
		s.now = e.at
		s.current = e.actor
		s.curPath = e.path
		fn, argFn, arg := e.fn, e.argFn, e.arg
		s.release(e) // recycle before dispatch; the work was captured above
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		s.current = ""
		s.curPath = 0
		s.executed++
	}
	return s.executed - start
}

// markBlocked and unmark are used by Cond.
func (s *Sim) markBlocked(actor, label string) { s.blocked[actor] = label }
func (s *Sim) unmarkBlocked(actor string)      { delete(s.blocked, actor) }

// Blocked returns a sorted list of "actor: label" strings for actors that
// are currently waiting on a condition. A non-empty result after a run has
// quiesced is the kernel-level signal behind "thread stuck" symptoms. The
// slice is the caller's to keep.
func (s *Sim) Blocked() []string {
	out := make([]string, 0, len(s.blocked))
	for a, l := range s.blocked {
		out = append(out, a+": "+l)
	}
	sort.Strings(out)
	return out
}

// BlockedOn reports whether any actor is blocked with the given label.
func (s *Sim) BlockedOn(label string) bool {
	for _, l := range s.blocked {
		if l == label {
			return true
		}
	}
	return false
}
