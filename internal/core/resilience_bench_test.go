package core_test

// Microbenchmarks for the resilience layer: the recover-wrapped trial
// path is always on, so BenchmarkReproduce/baseline doubles as proof that
// panic isolation costs nothing measurable, and the checkpointed variant
// prices the worst-case checkpoint cadence (every round). The repository
// benchmark (BENCHMARK.json, bench/) records the end-to-end numbers; the
// CI alloc gates read the baseline, path-addressing and partial variants.

import (
	"path/filepath"
	"testing"

	"anduril/internal/core"
)

func benchReproduce(b *testing.B, optFor func(i int) core.Options) {
	b.Helper()
	tgt := target(b, "f4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.Reproduce(tgt, optFor(i))
		if !rep.Reproduced {
			b.Fatalf("f4 not reproduced: %+v", rep)
		}
	}
}

func BenchmarkReproduce(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		// No checkpoint path configured: maybeCheckpoint is a string
		// compare per round, and the recover wrappers are the only
		// resilience cost on this path.
		benchReproduce(b, func(int) core.Options {
			return core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60}
		})
	})
	b.Run("checkpoint-every-round", func(b *testing.B) {
		dir := b.TempDir()
		benchReproduce(b, func(i int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				Checkpoint:      filepath.Join(dir, "bench.ck.json"),
				CheckpointEvery: 1,
			}
		})
	})
	b.Run("path-addressing", func(b *testing.B) {
		// Same search under AddrPath: prices the per-reach path
		// bookkeeping (context tracking, canonical-string assembly, the
		// per-site byPath index). Recorded in BENCH_alloc_budget.json;
		// the baseline variant above is the proof that none of it is paid
		// in the default mode.
		benchReproduce(b, func(int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				Addressing: core.AddrPath,
			}
		})
	})
	b.Run("partial", func(b *testing.B) {
		// Same search with the partial class enabled: prices the partial
		// sweep (per-operation pseudo-site reaches, ID caching, amplitude
		// recording) on a search that still concludes in the site class.
		// Recorded in BENCH_alloc_budget.json; the baseline variant above
		// is the proof that none of it is paid in the default mode.
		benchReproduce(b, func(int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				FaultClasses: []string{core.ClassSite, core.ClassPartial},
			}
		})
	})
}
