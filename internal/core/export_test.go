package core

// WithNaiveRanking returns o with the reference ranker selected instead of
// the incremental priority index. The equivalence test lives in core_test
// (it needs the failure dataset, which imports core) and cannot reach the
// unexported option otherwise.
func WithNaiveRanking(o Options) Options {
	o.naiveRanking = true
	return o
}
