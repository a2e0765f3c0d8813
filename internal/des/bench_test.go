package des

import "testing"

// BenchmarkEventThroughput measures raw kernel event dispatch.
func BenchmarkEventThroughput(b *testing.B) {
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.Schedule("a", 10, tick)
		}
	}
	s.Schedule("a", 10, tick)
	b.ResetTimer()
	s.Run(Time(1) << 60)
	if n < b.N {
		b.Fatalf("ran %d of %d", n, b.N)
	}
}

// BenchmarkScheduleCancel measures timer churn (the retry/timeout pattern
// every simulated system leans on).
func BenchmarkScheduleCancel(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.ScheduleArg("a", Time(i%1000), func(interface{}) {}, nil).Cancel()
	}
}

// BenchmarkCondSignal measures condition-variable wake-ups.
func BenchmarkCondSignal(b *testing.B) {
	s := New(1)
	c := NewCond(s, "bench")
	for i := 0; i < b.N; i++ {
		c.Wait("w", func() {})
		c.Signal()
		s.Run(Time(1) << 60)
	}
}

// BenchmarkSimReset measures what recycling a simulation costs a trial:
// almost all of it is reseeding the random source.
func BenchmarkSimReset(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Reset(int64(i))
	}
}
