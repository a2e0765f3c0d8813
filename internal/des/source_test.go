package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are where math/rand's seeding branches or wraps: zero and the
// seed it stands for, the signs, the multiples of 2³¹−1 that reduce to
// zero, their neighbours, and the ends of int64.
var edgeSeeds = []int64{
	0, 1, -1, 89482311, -89482311,
	int32max, -int32max, 2 * int32max, -2 * int32max, int32max - 1, int32max + 1, 1 << 31,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// streamDiff draws the same mix from a Sim's source and from
// rand.NewSource(seed) — Int63n over bounds that take both of its branches,
// Uint64, Int63, and Reads that leave part of a word behind for the next
// Read — and names the first draw where they part, or returns "".
func streamDiff(seed int64, draws int) string {
	got, want := New(seed).Rand(), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		var g, w int64
		switch i % 5 {
		case 0:
			n := int64(i)*7919 + 1
			g, w = got.Int63n(n), want.Int63n(n)
		case 1:
			g, w = got.Int63n(1<<(i%62+1)), want.Int63n(1<<(i%62+1))
		case 2:
			g, w = int64(got.Uint64()), int64(want.Uint64())
		case 3:
			g, w = got.Int63(), want.Int63()
		case 4:
			var a, b [5]byte
			got.Read(a[:i%5+1])
			want.Read(b[:i%5+1])
			if a != b {
				return fmt.Sprintf("seed %d, draw %d: Read %x, math/rand %x", seed, i, a, b)
			}
		}
		if g != w {
			return fmt.Sprintf("seed %d, draw %d: %d, math/rand %d", seed, i, g, w)
		}
	}
	return ""
}

// TestSourceMatchesMathRand: the table-seeded source draws math/rand's
// stream at every edge seed and at 900 seeds strided across int64.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	for i := int64(-450); i < 450; i++ {
		seeds = append(seeds, i*(math.MaxInt64/450)+i)
	}
	for _, seed := range seeds {
		if d := streamDiff(seed, 3000); d != "" {
			t.Fatal(d)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		if d := streamDiff(seed, int(draws%4000)); d != "" {
			t.Fatal(d)
		}
	})
}
