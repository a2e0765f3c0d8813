// Multifault reproduces a failure caused by TWO causally-independent
// faults — beyond the paper's single-fault scope (§6 limitation 2) — with
// the pair fault class.
//
// The toy service dies only when a store-scrub fault leaves it degraded
// AND a peer-ping flake hits inside the degraded window. Single-fault
// search exhausts its space; enabling the pair class lets a round arm two
// faults together, and the search finds the combination.
//
//	go run ./examples/multifault
package main

import (
	"fmt"
	"log"

	"anduril"
	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/sys/toy"
)

func main() {
	orc := anduril.LogContains("service entered unrecoverable state")

	// "Production": both faults hit in the same window.
	prod := cluster.Execute(9999, inject.Exact(
		inject.Instance{Site: "toy.scrub-store", Occurrence: 2},
		inject.Instance{Site: "toy.ping-peer", Occurrence: 2},
	), false, toy.Workload, toy.Horizon)
	if !orc.Satisfied(prod) {
		log.Fatal("the two-fault incident did not trigger")
	}

	target, err := anduril.NewTarget("toy-two-fault", toy.Workload, toy.Horizon,
		orc, prod.RenderLog(), []string{"internal/sys/toy"})
	if err != nil {
		log.Fatal(err)
	}

	// One fault per round — the paper's algorithm — cannot reproduce it.
	single := anduril.Reproduce(target, anduril.Options{Seed: 1, MaxRounds: 100})
	fmt.Printf("single-fault search: reproduced=%v after %d rounds\n", single.Reproduced, single.Rounds)
	if single.BestPartial != nil {
		fmt.Printf("  best partial fault: %s#%d (%d observables still missing)\n",
			single.BestPartial.Site, single.BestPartial.Occurrence, single.BestPartialMissing)
	}

	// With the pair class on, the pair space opens once the single-fault
	// space is exhausted.
	pair := anduril.Reproduce(target, anduril.Options{Seed: 1, MaxRounds: 100,
		FaultClasses: []string{anduril.ClassSite, anduril.ClassPair}})
	if !pair.Reproduced {
		log.Fatalf("pair search failed after %d rounds", pair.Rounds)
	}
	fmt.Println(anduril.Script(pair))
	if anduril.Verify(target, *pair.Script, 4242) {
		fmt.Println("script verified: deterministic replay reproduces the failure")
	}
}
