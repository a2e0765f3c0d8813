package des

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// busyRun drives a seeded run through everything Reset has to undo: timers
// (some cancelled, some left pending past the horizon), recurring ticks,
// actors parked on conditions, random draws and — when paths is set — a call
// tree. It returns a transcript of what the run observed.
func busyRun(s *Sim, paths bool) []string {
	var log []string
	note := func(format string, args ...interface{}) {
		log = append(log, fmt.Sprintf("%d %s/%d ", s.Now(), s.Current(), s.CurPath())+fmt.Sprintf(format, args...))
	}
	if paths {
		s.EnablePathTracking()
	}
	cond := NewCond(s, "gate")
	for i := 0; i < 30; i++ {
		i := i
		actor := fmt.Sprintf("a%d", i%4)
		t := s.ScheduleArg(actor, s.Jitter(900*Millisecond), func(interface{}) {
			note("step %d draw %d", i, s.Rand().Intn(1000))
			if i%5 == 0 {
				s.PostArgPath(actor, s.Jitter(Millisecond), func(x interface{}) { note("child of %v", x) }, i, s.PathExtend("edge"))
			}
			if i%7 == 0 {
				cond.Wait(actor, func() { note("woken %d", i) })
			}
		}, nil)
		if i%6 == 0 {
			t.Cancel()
		}
	}
	stop := s.Every("ticker", 100*Millisecond, func() { note("tick") })
	s.Schedule("a1", 450*Millisecond, func() { cond.Signal(); note("signalled") })
	s.Schedule("a3", 2*Second, func() { note("past the horizon") }) // left pending
	n := s.Run(Second)
	stop()
	return append(log, fmt.Sprintf("events=%d executed=%d blocked=%v nodes=%d",
		n, s.Executed(), s.Blocked(), len(s.pathNodes)))
}

// TestResetMatchesNew: a simulation Reset to a seed — whatever it ran before,
// under whatever watchdog, stopped wherever — is New(seed): the same run
// produces the same transcript, and the used one did not have to allocate its
// events again.
func TestResetMatchesNew(t *testing.T) {
	f := func(seedA, seedB int64, pathsA, pathsB bool) bool {
		want := busyRun(New(seedB), pathsB)

		s := New(seedA)
		switch seedA % 3 { // how the first run ends: budget, cancellation, horizon
		case 0:
			s.EventBudget = 40
		case 1:
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s.Watch(ctx)
		}
		busyRun(s, pathsA)
		s.Reset(seedB)
		if s.Now() != 0 || s.Executed() != 0 || s.PathTracking() || s.BudgetExhausted() || s.Interrupted() || len(s.Blocked()) != 0 {
			t.Errorf("Reset left state behind: now=%d executed=%d", s.Now(), s.Executed())
			return false
		}
		got := busyRun(s, pathsB)
		if len(got) != len(want) {
			t.Errorf("seed %d after seed %d: %d lines, fresh %d", seedB, seedA, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("seed %d after seed %d, line %d:\nreset: %s\nfresh: %s", seedB, seedA, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestResetReseedsTheStream: the source Reset re-seeds draws the stream of a
// fresh rand.NewSource, however far into another stream it was.
func TestResetReseedsTheStream(t *testing.T) {
	f := func(seedA, seedB int64, drawn uint16) bool {
		s := New(seedA)
		for i := 0; i < int(drawn); i++ {
			s.Rand().Int63()
		}
		s.Rand().Read(make([]byte, 3)) // leaves Read's partial word behind
		s.Reset(seedB)
		fresh := rand.New(rand.NewSource(seedB))
		for i := 0; i < 700; i++ { // past the generator's 607-word state
			if s.Rand().Int63() != fresh.Int63() || s.Jitter(Second) != Time(fresh.Int63n(int64(Second))) {
				return false
			}
		}
		var a, b [5]byte
		s.Rand().Read(a[:])
		fresh.Read(b[:])
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestResetReleasesPendingEvents: events still queued at Reset go back to the
// free list with their closures dropped, their timers turn into no-ops, and
// the next run's events are drawn from them.
func TestResetReleasesPendingEvents(t *testing.T) {
	s := New(1)
	ran := false
	var timers []Timer
	for i := 0; i < 250; i++ { // AllocsPerRun below posts 2 x 100
		timers = append(timers, s.ScheduleArg("a", Time(i+1)*Second, func(interface{}) { ran = true }, nil))
	}
	s.Run(Millisecond)
	s.Reset(2)
	for _, e := range s.free {
		if e.fn != nil || e.argFn != nil || e.arg != nil || e.canceled {
			t.Fatalf("a released event still holds its work: %+v", e)
		}
	}
	fn := func() {}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			s.Schedule("b", Time(i+1), fn)
		}
	}); allocs != 0 {
		t.Fatalf("scheduling on the reset sim allocated %.0f times: the pending events were not recycled", allocs)
	}
	for _, tm := range timers {
		tm.Cancel() // stale: must not cancel the new occupants
	}
	if n := s.Run(Second); n != 200 || ran {
		t.Fatalf("ran %d events (want the 200 posted after Reset), stale closure ran: %v", n, ran)
	}
}
