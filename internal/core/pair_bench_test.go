package core_test

import (
	"testing"

	"anduril/internal/core"
	"anduril/internal/inject"
)

var fillWindowSink []inject.Instance

// BenchmarkFillWindow prices one round's candidate selection. The pair
// variant is f30 with its pair stage open — the state of
// every pair round of that search: each pair site scans its untried
// instances for the best temporal score.
//
//	go test ./internal/core -run '^$' -bench 'BenchmarkFillWindow' -benchmem -count 3
func BenchmarkFillWindow(b *testing.B) {
	b.Run("pair", func(b *testing.B) {
		p, err := core.Prepare(target(b, "f30"), core.Options{Seed: 1, MaxRounds: 500})
		if err != nil {
			b.Fatal(err)
		}
		p.ExhaustSingleFaults()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fillWindowSink = p.FillWindow(10)
		}
		if len(fillWindowSink) == 0 || !inject.IsPairSite(fillWindowSink[0].Site) {
			b.Fatalf("window holds no pair candidates: %v", fillWindowSink)
		}
	})
}
