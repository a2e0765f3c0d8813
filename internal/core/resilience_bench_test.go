package core_test

// Microbenchmarks for the resilience layer: the recover-wrapped trial
// path is always on, so BenchmarkReproduce/baseline doubles as proof that
// panic isolation costs nothing measurable. The repository
// benchmark (BENCHMARK.json, bench/) records the end-to-end numbers; the
// CI alloc gates read the baseline, path-addressing, path-deep, partial,
// pair and site-distance-deep variants.

import (
	"testing"

	"anduril/internal/core"
)

func benchReproduce(b *testing.B, id string, optFor func(i int) core.Options) {
	b.Helper()
	tgt := target(b, id)
	// One untimed search leaves a warm workspace in the pool, so every
	// timed one starts warm whatever b.N is — the alloc gate's 20x and a
	// recording's 500x measure the same steady state.
	core.Reproduce(tgt, optFor(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.Reproduce(tgt, optFor(i))
		if !rep.Reproduced {
			b.Fatalf("%s not reproduced: %+v", id, rep)
		}
	}
}

func BenchmarkReproduce(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		// The recover wrappers are the only resilience cost on this path.
		benchReproduce(b, "f4", func(int) core.Options {
			return core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60}
		})
	})
	b.Run("path-addressing", func(b *testing.B) {
		// Same search under AddrPath: prices the per-reach path
		// bookkeeping (context tracking, the chain-hash fold, the plan's
		// path index) and the few canonical strings a search renders.
		// Recorded in BENCH_alloc_budget.json; the baseline variant above
		// is the proof that none of it is paid in the default mode.
		benchReproduce(b, "f4", func(int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				Addressing: core.AddrPath,
			}
		})
	})
	b.Run("path-deep", func(b *testing.B) {
		// f1 under AddrPath: zk's one-way Send chains take the free run's
		// call tree 1198 edges deep, so one canonical string is up to 26 KB
		// and the 2667 reaches of the free run would spell 32 MB of them.
		// The gate is on bytes as much as on allocations: a string per
		// reach is one allocation each. Recorded in BENCH_alloc_budget.json.
		benchReproduce(b, "f1", func(int) core.Options {
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
		benchReproduce(b, "f4", func(int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				FaultClasses: []string{core.ClassSite, core.ClassPartial},
			}
		})
	})
	b.Run("pair", func(b *testing.B) {
		// f30 at engine seed 2: 66 rounds, most of them in the pair class
		// on the dyn target — the round loop the f4 variants above finish
		// too early to price (pair-window selection, a dyn cluster built per
		// trial). Recorded in BENCH_alloc_budget.json.
		benchReproduce(b, "f30", func(int) core.Options {
			return core.Options{Strategy: core.FullFeedback, Seed: 2, MaxRounds: 500}
		})
	})
	b.Run("site-distance-deep", func(b *testing.B) {
		// f16 under site-distance: 133 rounds on tablestore, none of them
		// on dyn — the deep search whose trial is WAL appends and simdisk
		// buffers, so that half has a bytes gate of its own beside the pair
		// row's. Recorded in BENCH_alloc_budget.json.
		benchReproduce(b, "f16", func(int) core.Options {
			return core.Options{Strategy: core.SiteDistance, Seed: 1, MaxRounds: 500}
		})
	})
}
