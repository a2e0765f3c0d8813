// Package logdiff implements the log-comparison machinery of §5.1 and the
// timeline alignment of §5.2.3.
//
// A naive textual diff of two distributed-system logs fails for the reasons
// the paper gives: timestamps make every line unique, and concurrent
// threads interleave differently across runs. The pipeline here follows the
// paper exactly:
//
//  1. sanitize entries (timestamps are already stripped by parsing; volatile
//     numeric fields are normalized away);
//  2. group entries by thread name;
//  3. run the Myers difference algorithm per thread;
//  4. messages present only in the failure log — plus every message of
//     threads that exist only in the failure log — are the relevant
//     observables;
//  5. the per-thread LCS matches double as anchor points to map positions
//     on a run's timeline onto the failure log's timeline (piecewise linear
//     interval scaling), which the temporal-distance feedback needs.
package logdiff

import (
	"cmp"
	"slices"
	"strings"

	"anduril/internal/logging"
)

// Key identifies an observable: a sanitized message on a thread. Thread
// names are kept verbatim (developers name threads deliberately, §5.1.1);
// message bodies are sanitized.
type Key struct {
	Thread string
	Msg    string
}

// Sanitize normalizes a log message: every maximal run of decimal digits
// becomes '#'. This removes counters, ports, sizes, offsets and other
// volatile fields while preserving message identity, the same role the
// paper's timestamp/field sanitization plays. The returned string is the
// interned canonical copy: repeated calls with messages sharing one
// sanitized form return the same string without allocating. Entries are
// diffed by the id behind it (logging.Entry.ID).
func Sanitize(msg string) string { return logging.Canonical(logging.SanitizeID(msg)) }

// byThread is a log's entries bucketed by thread: thread t's message ids —
// and, when asked for, their global positions in the log — are
// ids[off[t]:off[t+1]], in log order. A counting sort into flat buffers the
// next grouping reuses.
type byThread struct {
	ids, pos []int32
	off      []int32 // one past the thread count long
	tidx     []int32 // per entry: its thread's index, -1 for a thread not in the table
}

// group buckets entries by the thread table. With learn set an unseen thread
// is added to the table; otherwise its entries are left out.
func (b *byThread) group(entries []logging.Entry, threads map[string]int32, learn, withPos bool) {
	b.tidx = resize(b.tidx, len(entries))
	for i := range entries {
		t, ok := threads[entries[i].Thread]
		if !ok {
			t = -1
			if learn {
				t = int32(len(threads))
				threads[entries[i].Thread] = t
			}
		}
		b.tidx[i] = t
	}
	n := len(threads)
	b.off = resize(b.off, n+1)
	clear(b.off)
	for _, t := range b.tidx {
		if t >= 0 {
			b.off[t+1]++
		}
	}
	for t := 0; t < n; t++ {
		b.off[t+1] += b.off[t]
	}
	b.ids = resize(b.ids, int(b.off[n]))
	if withPos {
		b.pos = resize(b.pos, int(b.off[n]))
	}
	// Place each entry at its thread's cursor, off[t], which ends one thread
	// further; shifting the offsets back restores them.
	for i, t := range b.tidx {
		if t < 0 {
			continue
		}
		at := b.off[t]
		b.off[t]++
		b.ids[at] = entries[i].ID()
		if withPos {
			b.pos[at] = int32(i)
		}
	}
	copy(b.off[1:], b.off[:n])
	b.off[0] = 0
}

// resize returns s with length n, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Failure is a failure log prepared for comparison: grouped by thread once,
// with its distinct observables numbered. A search diffs every round's run
// log against the same failure log, so everything that depends on the
// failure side alone is computed here. A Failure is read-only after Prepare
// and may be shared.
type Failure struct {
	threads map[string]int32 // thread name -> its index
	log     byThread
	keys    []Key            // the distinct (thread, message) pairs
	keyOf   []int32          // global position -> index into keys
	keyIdx  map[uint64]int32 // thread index and message id, packed -> index into keys
}

func packKey(thread, id int32) uint64 { return uint64(uint32(thread))<<32 | uint64(uint32(id)) }

// Prepare groups a failure log for comparison.
func Prepare(failure []logging.Entry) *Failure {
	f := &Failure{
		threads: make(map[string]int32),
		keyOf:   make([]int32, len(failure)),
		keyIdx:  make(map[uint64]int32),
	}
	f.log.group(failure, f.threads, true, true)
	for t := int32(0); int(t)+1 < len(f.log.off); t++ {
		for j := f.log.off[t]; j < f.log.off[t+1]; j++ {
			id, g := f.log.ids[j], f.log.pos[j]
			ki, ok := f.keyIdx[packKey(t, id)]
			if !ok {
				ki = int32(len(f.keys))
				f.keyIdx[packKey(t, id)] = ki
				f.keys = append(f.keys, Key{Thread: failure[g].Thread, Msg: logging.Canonical(id)})
			}
			f.keyOf[g] = ki
		}
	}
	return f
}

// KeyIndex returns the number Missing reports k under, or false when the
// failure log has no such message.
func (f *Failure) KeyIndex(k Key) (int, bool) {
	t, ok := f.threads[k.Thread]
	if !ok {
		return 0, false
	}
	i, ok := f.keyIdx[packKey(t, logging.SanitizeID(k.Msg))] // sanitizing a sanitized message changes nothing
	return int(i), ok
}

// Scratch is the working memory of comparisons: the run log's grouping, the
// Myers vectors and the result of the last Missing. The zero value is ready;
// one Scratch serves any number of sequential comparisons (a search keeps
// one for its rounds) and must not be shared between goroutines.
type Scratch struct {
	run       byThread // the run log grouped by the failure log's threads
	unmatched []bool   // per failure position: no LCS partner in the run log
	missing   []bool   // per failure key: Missing's result
	anchors   []matchPair

	// Myers: v[k+max] is the furthest x along diagonal k; rows holds, for
	// every edit step d, the 2d+1 diagonals -d..d of v as they stood before
	// the step — all that backtracking reads of it — row d at offset d*d.
	v, rows []int32
	matches [][2]int
}

// matchPair is one LCS match between two logs, in global positions.
type matchPair struct{ a, b int }

// myers computes the LCS matches between two sequences of interned
// template IDs using the Myers O(ND) algorithm. It returns index pairs
// (i in a, j in b) of matched elements, in increasing order. The returned
// slice aliases the scratch and is only valid until the next call.
func (sc *Scratch) myers(a, b []int32) [][2]int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	max := n + m
	sc.v = resize(sc.v, 2*max+1)
	v := sc.v
	clear(v)
	rows := sc.rows[:0]
	var dFinal int
	found := false
	for d := 0; d <= max && !found; d++ {
		rows = append(rows, v[max-d:max+d+1]...)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+max] < v[k+1+max]) {
				x = int(v[k+1+max])
			} else {
				x = int(v[k-1+max]) + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+max] = int32(x)
			if x >= n && y >= m {
				dFinal = d
				found = true
				break
			}
		}
	}
	sc.rows = rows
	// Backtrack to recover matches: at most one per element of the shorter
	// side.
	if cap(sc.matches) < min(n, m) {
		sc.matches = make([][2]int, 0, min(n, m))
	}
	matches := sc.matches[:0]
	x, y := n, m
	for d := dFinal; d > 0; d-- {
		vd := rows[d*d : (d+1)*(d+1)] // diagonal k at vd[k+d]: endpoints after d-1 steps
		k := x - y
		var prevK int
		if k == -d || (k != d && vd[k-1+d] < vd[k+1+d]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := int(vd[prevK+d])
		prevY := prevX - prevK
		// Snake: equal elements walked over after the edit step.
		for x > prevX && y > prevY {
			x--
			y--
			matches = append(matches, [2]int{x, y})
		}
		// The edit step itself consumes one element of a or b.
		x, y = prevX, prevY
	}
	// Leading snake at d=0.
	for x > 0 && y > 0 {
		x--
		y--
		matches = append(matches, [2]int{x, y})
	}
	// Reverse into increasing order.
	for i, j := 0, len(matches)-1; i < j; i, j = i+1, j-1 {
		matches[i], matches[j] = matches[j], matches[i]
	}
	sc.matches = matches
	return matches
}

// diff runs the per-thread Myers diff of run against f, leaving in
// sc.unmatched which failure entries found no partner and — only when
// anchors is set — in sc.anchors the matched pairs in global positions,
// unsorted. The run side's ids are taken as its entries carry them; run
// threads the failure log does not have cannot match anything and are
// left out.
func (sc *Scratch) diff(run []logging.Entry, f *Failure, anchors bool) {
	sc.run.group(run, f.threads, false, anchors)
	sc.unmatched = resize(sc.unmatched, len(f.keyOf))
	for g := range sc.unmatched {
		sc.unmatched[g] = true
	}
	sc.anchors = sc.anchors[:0]
	for t := 0; t+1 < len(f.log.off); t++ {
		r0, r1 := sc.run.off[t], sc.run.off[t+1]
		f0, f1 := f.log.off[t], f.log.off[t+1]
		fpos := f.log.pos[f0:f1]
		// A thread absent from the run log matches nothing: every message
		// of it stays unmatched, hence relevant.
		for _, m := range sc.myers(sc.run.ids[r0:r1], f.log.ids[f0:f1]) {
			sc.unmatched[fpos[m[1]]] = false
			if anchors {
				sc.anchors = append(sc.anchors, matchPair{a: int(sc.run.pos[int(r0)+m[0]]), b: int(fpos[m[1]])})
			}
		}
	}
}

// Missing is the per-round diff (Algorithm 2's COMPARE): it reports, per
// key of f as KeyIndex numbers them, whether the message appears in the
// failure log without a partner in the run log — Compare's Missing set as a
// vector, with no anchors computed. The result is valid until the next call
// on sc.
func (sc *Scratch) Missing(run []logging.Entry, f *Failure) []bool {
	sc.diff(run, f, false)
	sc.missing = resize(sc.missing, len(f.keys))
	miss := sc.missing
	clear(miss)
	for g, un := range sc.unmatched {
		if un {
			miss[f.keyOf[g]] = true
		}
	}
	return miss
}

// Result is the outcome of comparing a run log against the failure log.
type Result struct {
	// Missing maps each observable that appears in the failure log but not
	// in the run log to its global positions in the failure log.
	Missing map[Key][]int
	// Matches are LCS anchor points: (run global pos, failure global pos),
	// sorted by run position and strictly increasing on both sides.
	Matches []matchPair
}

// MissingKeys returns the Missing set as a sorted slice for deterministic
// iteration.
func (r *Result) MissingKeys() []Key {
	out := make([]Key, 0, len(r.Missing))
	for k := range r.Missing {
		out = append(out, k)
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// compareKeys orders Keys by (thread, msg).
func compareKeys(x, y Key) int {
	return cmp.Or(strings.Compare(x.Thread, y.Thread), strings.Compare(x.Msg, y.Msg))
}

// compareByA orders LCS anchors by run-side position.
func compareByA(x, y matchPair) int { return cmp.Compare(x.a, y.a) }

// Compare diffs a run log against the failure log per thread (§5.1.1). The
// returned Missing set is exactly "messages that only appear in the failure
// log" — the relevant observables — and Matches the anchors a timeline
// alignment is built from. A search needs both once, for its free run;
// every later round asks Scratch.Missing of the same prepared Failure.
func Compare(run, failure []logging.Entry) *Result {
	return new(Scratch).Compare(run, Prepare(failure))
}

// Compare is the full comparison of run against a prepared failure log. The
// Result is the caller's: nothing in it aliases the scratch.
func (sc *Scratch) Compare(run []logging.Entry, f *Failure) *Result {
	sc.diff(run, f, true)
	res := &Result{Missing: make(map[Key][]int)}
	for g, un := range sc.unmatched {
		if un {
			k := f.keys[f.keyOf[g]]
			res.Missing[k] = append(res.Missing[k], g)
		}
	}
	// Sort anchors by run position and enforce monotonicity on the failure
	// side (longest-nondecreasing filter) so the alignment is a function.
	slices.SortFunc(sc.anchors, compareByA)
	res.Matches = monotonic(sc.anchors)
	return res
}

// monotonic keeps a longest subsequence of anchors whose failure positions
// are strictly increasing (classic LIS, O(n log n)).
func monotonic(pairs []matchPair) []matchPair {
	if len(pairs) == 0 {
		return nil
	}
	tails := []int{} // indices into pairs
	prev := make([]int, len(pairs))
	for i := range prev {
		prev[i] = -1
	}
	for i, p := range pairs {
		lo, hi := 0, len(tails)
		for lo < hi {
			mid := (lo + hi) / 2
			if pairs[tails[mid]].b < p.b {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			prev[i] = tails[lo-1]
		}
		if lo == len(tails) {
			tails = append(tails, i)
		} else {
			tails[lo] = i
		}
	}
	out := make([]matchPair, 0, len(tails))
	for i := tails[len(tails)-1]; i >= 0; i = prev[i] {
		out = append(out, pairs[i])
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Alignment maps logical positions on a run's timeline onto the failure
// log's timeline using the LCS anchors, scaling linearly within each
// matched interval (§5.2.3). This is how the explorer estimates where a
// fault instance observed in the free run would sit in the production
// failure timeline.
type Alignment struct {
	anchors []matchPair
	runLen  int
	failLen int
}

// NewAlignment builds an alignment from a Compare result.
func NewAlignment(res *Result, runLen, failLen int) *Alignment {
	return &Alignment{anchors: res.Matches, runLen: runLen, failLen: failLen}
}

// Map projects a run-log position onto the failure-log timeline.
func (al *Alignment) Map(runPos int) float64 {
	if len(al.anchors) == 0 {
		// No anchors: scale proportionally.
		if al.runLen == 0 {
			return 0
		}
		return float64(runPos) * float64(al.failLen) / float64(al.runLen)
	}
	// Before the first anchor.
	first := al.anchors[0]
	if runPos <= first.a {
		if first.a == 0 {
			return float64(first.b)
		}
		return float64(runPos) * float64(first.b) / float64(first.a)
	}
	// Between anchors: binary search for the first anchor at or past runPos.
	// Anchors are sorted by run position, so this replaces the former linear
	// scan (the explorer calls Map once per candidate site per round).
	lo, hi := 1, len(al.anchors)
	for lo < hi {
		mid := (lo + hi) / 2
		if al.anchors[mid].a < runPos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(al.anchors) {
		prev, next := al.anchors[lo-1], al.anchors[lo]
		if next.a == prev.a {
			return float64(next.b)
		}
		frac := float64(runPos-prev.a) / float64(next.a-prev.a)
		return float64(prev.b) + frac*float64(next.b-prev.b)
	}
	// After the last anchor.
	last := al.anchors[len(al.anchors)-1]
	remRun := al.runLen - last.a
	remFail := al.failLen - last.b
	if remRun <= 0 {
		return float64(last.b)
	}
	return float64(last.b) + float64(runPos-last.a)*float64(remFail)/float64(remRun)
}
