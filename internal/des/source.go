package des

const rngLen, rngTap, int32max = 607, 273, 1<<31 - 1

// source is math/rand's additive lagged Fibonacci generator, with the
// state, Uint64 and Int63 of the standard library's rngSource, so it draws
// that source's stream for every seed. Only Seed is done differently:
// math/rand fills the state by stepping x ← 48271·x mod (2³¹−1) 1 841
// times, each step waiting on the last, where this one reads step k off a
// table of 48271^k.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

// seedPow[k] is 48271^k mod 2³¹−1, for every step Seed reads.
var seedPow = func() (p [21 + 3*rngLen]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 48271 % int32max
	}
	return p
}()

// step returns seeding step k from x, 48271^k·x mod 2³¹−1, by folding the
// product's high bits onto its low ones (2³¹ ≡ 1). Two folds leave at most
// 2³¹−1, and the residue is never 0 (x is not), so no subtraction is left.
func step(k int, x uint64) int64 {
	p := seedPow[k] * x
	p = p&int32max + p>>31
	return int64(p&int32max + p>>31)
}

// Seed puts the source in the state math/rand's Seed gives it: word i is
// built from seeding steps 21+3i, 22+3i and 23+3i.
func (r *source) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	if seed %= int32max; seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range r.vec {
		k := 21 + 3*i
		r.vec[i] = step(k, x)<<40 ^ step(k+1, x)<<20 ^ step(k+2, x) ^ rngCooked[i]
	}
}

func (r *source) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

func (r *source) Uint64() uint64 {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
