package des

import (
	"context"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule("a", 30, func() { got = append(got, 3) })
	s.Schedule("a", 10, func() { got = append(got, 1) })
	s.Schedule("a", 20, func() { got = append(got, 2) })
	s.Run(Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %d, want 30", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule("a", 5, func() { got = append(got, i) })
	}
	s.Run(Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	s.ScheduleArg("a", 10, func(interface{}) { ran = true }, nil).Cancel()
	s.Run(Second)
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestHorizonPausesAndResumes(t *testing.T) {
	s := New(1)
	ran := 0
	s.Schedule("a", 10, func() { ran++ })
	s.Schedule("a", 100, func() { ran++ })
	s.Run(50)
	if ran != 1 {
		t.Fatalf("ran=%d before horizon, want 1", ran)
	}
	s.Run(200)
	if ran != 2 {
		t.Fatalf("ran=%d after resume, want 2", ran)
	}
}

func TestEveryAndCancel(t *testing.T) {
	s := New(1)
	n := 0
	cancel := s.Every("ticker", 10, func() { n++ })
	s.Run(50)
	cancel()
	s.Run(Second)
	if n != 5 {
		t.Fatalf("ticks=%d, want 5", n)
	}
}

func TestCurrentActor(t *testing.T) {
	s := New(1)
	var inside string
	s.Schedule("worker-1", 1, func() { inside = s.Current() })
	s.Run(Second)
	if inside != "worker-1" {
		t.Fatalf("Current()=%q inside event, want worker-1", inside)
	}
	if s.Current() != "" {
		t.Fatalf("Current()=%q outside event, want empty", s.Current())
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	s := New(1)
	c := NewCond(s, "queue-ready")
	var woke []string
	s.Go("w1", func() { c.Wait("w1", func() { woke = append(woke, "w1") }) })
	s.Go("w2", func() { c.Wait("w2", func() { woke = append(woke, "w2") }) })
	s.Schedule("sig", 10, func() { c.Signal() })
	s.Schedule("sig", 20, func() { c.Signal() })
	s.Run(Second)
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Fatalf("wake order: %v", woke)
	}
	if c.Waiters() != 0 {
		t.Fatalf("waiters left: %d", c.Waiters())
	}
}

func TestCondBlockedTracking(t *testing.T) {
	s := New(1)
	c := NewCond(s, "safe-point")
	s.Go("roller", func() { c.Wait("roller", func() {}) })
	s.Run(Second)
	if !s.BlockedOn("safe-point") {
		t.Fatal("expected roller blocked on safe-point")
	}
	if got := s.Blocked(); len(got) != 1 || got[0] != "roller: safe-point" {
		t.Fatalf("Blocked()=%v, want [roller: safe-point]", got)
	}
	c.Broadcast()
	s.Run(Second)
	if s.BlockedOn("safe-point") {
		t.Fatal("still blocked after broadcast")
	}
}

// Property: a Sim with the same seed and same schedule executes identically.
func TestDeterminismProperty(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var trace []int64
		for i := 0; i < 20; i++ {
			d := Time(s.Rand().Int63n(1000))
			s.Schedule("a", d, func() { trace = append(trace, int64(s.Now())) })
		}
		s.Run(Second)
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: jitter is always within bounds.
func TestJitterBounds(t *testing.T) {
	s := New(42)
	f := func(max int16) bool {
		m := Time(max)
		j := s.Jitter(m)
		if m <= 0 {
			return j == 0
		}
		return j >= 0 && j < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A zero-delay self-scheduling loop never advances virtual time, so the
// horizon cannot stop it — only the event budget can.
func TestEventBudgetBoundsLivelock(t *testing.T) {
	s := New(1)
	s.EventBudget = 500
	var spin func()
	spin = func() { s.Go("spinner", spin) }
	s.Go("spinner", spin)
	n := s.Run(Second)
	if n != 500 {
		t.Fatalf("executed %d events, want exactly the budget (500)", n)
	}
	if !s.BudgetExhausted() {
		t.Fatal("BudgetExhausted not reported")
	}
	if s.Now() != 0 {
		t.Fatalf("virtual clock advanced to %d during a zero-delay livelock", s.Now())
	}
}

// The budget is per-Run: a sim that finishes under budget never reports
// exhaustion, and the zero value means unlimited.
func TestEventBudgetUnderAndUnlimited(t *testing.T) {
	s := New(1)
	s.EventBudget = 100
	for i := 0; i < 10; i++ {
		s.Schedule("a", Time(i), func() {})
	}
	s.Run(Second)
	if s.BudgetExhausted() {
		t.Fatal("exhausted after 10 events with budget 100")
	}

	s2 := New(1)
	done := 0
	var spin func()
	spin = func() {
		done++
		if done < 5000 {
			s2.Go("spinner", spin)
		}
	}
	s2.Go("spinner", spin)
	s2.Run(Second)
	if s2.BudgetExhausted() {
		t.Fatal("zero budget must mean unlimited")
	}
	if done != 5000 {
		t.Fatalf("ran %d iterations, want 5000", done)
	}
}

// A cancelled watch context interrupts a run that would otherwise spin
// past any horizon.
func TestWatchContextInterrupts(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	s.Watch(ctx)
	n := 0
	var spin func()
	spin = func() {
		n++
		if n == 3000 {
			cancel()
		}
		s.Go("spinner", spin)
	}
	s.Go("spinner", spin)
	s.Run(Second)
	if !s.Interrupted() {
		t.Fatal("Interrupted not reported after cancel")
	}
	// The poll runs every 1024 events, so the run stops within one poll
	// interval of the cancellation.
	if n < 3000 || n > 3000+1024 {
		t.Fatalf("stopped after %d events, want within a poll interval of 3000", n)
	}
}

func TestWatchContextUncancelledIsHarmless(t *testing.T) {
	s := New(1)
	s.Watch(context.Background())
	ran := false
	s.Schedule("a", 10, func() { ran = true })
	s.Run(Second)
	if !ran || s.Interrupted() {
		t.Fatalf("ran=%v interrupted=%v, want true/false", ran, s.Interrupted())
	}
}

// A budget-exhausted or interrupted Run must not poison later Run calls on
// the same sim: crash/restart re-entry runs the sim again, and a stale
// BudgetExhausted/Interrupted verdict would falsely degrade the round.
func TestRunClearsWatchdogVerdicts(t *testing.T) {
	s := New(1)
	s.EventBudget = 100
	spinning := true
	var spin func()
	spin = func() {
		if spinning {
			s.Go("spinner", spin)
		}
	}
	s.Go("spinner", spin)
	s.Run(Second)
	if !s.BudgetExhausted() {
		t.Fatal("first run: BudgetExhausted not reported")
	}
	// Second run: the queue holds only the livelock's next tick; end the
	// spin so the run drains immediately, well under budget.
	spinning = false
	s.Schedule("a", 1, func() {})
	s.Run(Second)
	if s.BudgetExhausted() {
		t.Fatal("second run under budget still reports BudgetExhausted")
	}

	s2 := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	s2.Watch(ctx)
	cancel()
	s2.Schedule("a", 1, func() {})
	s2.Run(Second)
	if !s2.Interrupted() {
		t.Fatal("cancelled watch: Interrupted not reported")
	}
	s2.Watch(context.Background())
	s2.Schedule("a", 1, func() {})
	s2.Run(Second)
	if s2.Interrupted() {
		t.Fatal("second run with live watch still reports Interrupted")
	}
}

// The event freelist must preserve cancel semantics across reuse: a stale
// cancel handle from an executed event must not cancel the event struct's
// next occupant.
func TestStaleCancelAfterReuseIsNoOp(t *testing.T) {
	s := New(1)
	ran1, ran2 := false, false
	cancel1 := s.ScheduleArg("a", 1, func(interface{}) { ran1 = true }, nil).Cancel
	s.Run(Second)
	if !ran1 {
		t.Fatal("first event did not run")
	}
	// The event struct is recycled; this schedule reuses it.
	s.Schedule("a", 1, func() { ran2 = true })
	cancel1() // stale: must not touch the new occupant
	s.Run(Second)
	if !ran2 {
		t.Fatal("stale cancel handle cancelled a recycled event")
	}
}

// Steady-state scheduling must not allocate: after warmup every Schedule
// draws its event from the freelist.
func TestPostSteadyStateAllocs(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 64; i++ {
		s.Schedule("a", 1, fn)
	}
	s.Run(Second)
	allocs := testing.AllocsPerRun(100, func() {
		s.Schedule("a", 1, fn)
		s.Run(s.Now() + Second)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Schedule+Run allocates %.1f objects per event, want 0", allocs)
	}
}
