package textrec

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// TestPaddedMatchesFmt: Padded prints what fmt's %0Nd prints, for every
// value in [0, 10^N+10) at the widths the targets use (k%03d, row-%04d,
// v%04d), and at the edges of every power of ten, both signs and the int
// range at every width up to the segment names' 20 and past it.
func TestPaddedMatchesFmt(t *testing.T) {
	check := func(prefix string, i, width int) {
		t.Helper()
		if got, want := Padded(prefix, i, width), fmt.Sprintf("%s%0*d", prefix, width, i); got != want {
			t.Fatalf("Padded(%q, %d, %d) = %q, want %q", prefix, i, width, got, want)
		}
	}
	for _, width := range []int{3, 4} {
		limit := 1
		for n := 0; n < width; n++ {
			limit *= 10
		}
		for i := 0; i < limit+10; i++ {
			check("row-", i, width)
		}
	}
	edges := []int{0, math.MaxInt, math.MinInt, math.MinInt + 1}
	for p := 1; p <= math.MaxInt/10; p *= 10 {
		edges = append(edges, p-1, p, p+1, -p, -p-1)
	}
	for _, i := range edges {
		for width := 0; width <= 22; width++ {
			check("", i, width)
			check("mq1/orders/", i, width)
		}
	}
}

// TestRecordsMatchFmt: the records the targets append are what their fmt
// forms print: dfs's edit log "%d|%s\n", mq's topic log "%d|%s|%s\n" and
// its offset syncs "%d|%d\n".
func TestRecordsMatchFmt(t *testing.T) {
	nums := []int64{0, 1, 9, 10, 999, 1073741825, -1, math.MaxInt64, math.MinInt64}
	strs := []string{"", "k", "a|b", "ADDBLOCK /user/journal/edit-1 blk_1", "%d", "ünï\n"}
	for _, n := range nums {
		for _, m := range nums {
			if got, want := string(AppendRecord(nil, n, strconv.FormatInt(m, 10))), fmt.Sprintf("%d|%d\n", n, m); got != want {
				t.Errorf("AppendRecord(%d, %d) = %q, want %q", n, m, got, want)
			}
		}
		for _, s := range strs {
			if got, want := string(AppendRecord(nil, n, s)), fmt.Sprintf("%d|%s\n", n, s); got != want {
				t.Errorf("AppendRecord(%d, %q) = %q, want %q", n, s, got, want)
			}
			if got, want := string(AppendRecord([]byte("x"), n, s, s+"v")), fmt.Sprintf("x%d|%s|%s\n", n, s, s+"v"); got != want {
				t.Errorf("AppendRecord(%d, %q, %q) = %q, want %q", n, s, s+"v", got, want)
			}
		}
	}
}
