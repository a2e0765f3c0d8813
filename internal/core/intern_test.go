package core_test

import (
	"maps"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/logging"
)

// TestInternTableGrowthAcrossEngineSeeds pins how the process-global intern
// table (logging.InternedForms) behaves under what a daemon does all day:
// the same failures searched under ever new engine seeds. Sanitizing strips
// decimal digits only, so the a–f of a %x operand (zk's zxids and session
// ids) survive and the table is bounded by values, not by templates. On the
// dataset those values are bounded by the fixed workloads and every spelling
// has been seen by the 4th seed; what still arrives between the 4th and the
// 8th are fault-path messages a later seed's injections reach first, on the
// three failures below. Recorded, not fixed: nothing frees the table (ROADMAP
// "Found, not fixed").
//
// The forms are collected from the logs themselves — every judged round's
// and the free run's — so the count does not depend on what other tests of
// this binary interned first.
func TestInternTableGrowthAcrossEngineSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("272 searches")
	}
	want := map[string]int{"f16": 1, "f31": 2, "f33": 3}
	got := map[string]int{}
	for _, sc := range failures.All() {
		tgt := target(t, sc.ID)
		forms, by4 := map[int32]bool{}, 0
		for seed := int64(1); seed <= 8; seed++ {
			cp := *tgt
			var free *cluster.Env // never recycled: still the free run's after the search
			cp.Workload = func(env *cluster.Env) {
				if free == nil {
					free = env
				}
				tgt.Workload(env)
			}
			cp.Oracle.Check = func(r *cluster.Result) bool {
				for _, e := range r.Entries {
					forms[e.ID()] = true
				}
				return tgt.Oracle.Satisfied(r)
			}
			core.Reproduce(&cp, core.Options{Seed: seed, MaxRounds: 40})
			for _, e := range free.Log.Entries() {
				forms[e.ID()] = true
			}
			if seed == 4 {
				by4 = len(forms)
			}
		}
		if late := len(forms) - by4; late != 0 {
			got[sc.ID] = late
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("forms first interned between the 4th and the 8th engine seed, per failure: %v, pinned %v", got, want)
	}
	if logging.InternedForms() == 0 {
		t.Fatal("InternedForms reports an empty table after 272 searches")
	}
}
