package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"anduril/internal/analysis"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/server"
)

// cell is one reproduction request of an in-process workload.
type cell struct {
	ID       string
	Seed     int64 // engine seed (core.Options.Seed), not the benchmark seed
	Strategy core.Strategy
	Addr     core.Addressing
}

func (c cell) options() core.Options {
	return core.Options{Strategy: c.Strategy, Seed: c.Seed, MaxRounds: 500, Addressing: c.Addr}
}

func (c cell) String() string {
	return fmt.Sprintf("%s/seed%d/%s/%s", c.ID, c.Seed, c.Strategy, c.Addr)
}

// workload describes one traffic mix. The request SET of every workload
// is fixed and the benchmark seed only orders it (per pass, per job
// block, per dedupe draw): rounds per reproduction swing by 7x between
// engine seeds (f30: 66 to 474 rounds) and some engine seeds do not
// reproduce at all (f3, f31), so deriving engine seeds from the benchmark
// seed would make every metric a function of the seed and rounds_total
// useless as an exact count.
type workload struct {
	name string

	// cells is the op of an in-process workload: one pass over them.
	cells []cell

	// daemon marks the two workloads driven through anduril-server.
	daemon bool
	dedupe bool

	// tailPct is the percentile op_ms_tail reports: the highest of
	// p66/p75/p90/p95/p99 that keeps at least ten samples beyond it at the
	// sized op count, fixed so the metric means the same thing every run.
	tailPct float64
}

// daemonIDs are the failures daemon jobs cycle over: the dataset minus
// the deep searches (f25, f29, f30 would be one job in three of the wall
// time) and minus f3 and f31, which fail to reproduce within 500 rounds
// on some engine seeds (f3 on ~8 % of seeds 990-1299) — a workload may not
// contain ops that fail.
func daemonIDs() []string {
	skip := map[string]bool{"f3": true, "f25": true, "f29": true, "f30": true, "f31": true}
	var ids []string
	for _, s := range failures.All() {
		if !skip[s.ID] {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// Engine seeds of daemon jobs. Every (daemonIDs, seed) pair in
// [warmSeed, coldSeed0+coldSeeds) reproduces within 500 rounds.
const (
	warmSeed  = 999  // one warm-up job per failure id
	coldSeed0 = 1000 // job i of daemon_cold uses coldSeed0 + i/len(ids)
	coldSeeds = 300
)

func daemonSpec(id string, seed int64) server.Spec {
	return server.Spec{Failure: id, Seed: seed}.Normalize()
}

func idRange(prefix string, from, to int) []string {
	var ids []string
	for i := from; i <= to; i++ {
		ids = append(ids, prefix+strconv.Itoa(i))
	}
	return ids
}

func cellsOf(ids []string, seeds []int64, strat core.Strategy, addr core.Addressing) []cell {
	var out []cell
	for _, seed := range seeds {
		for _, id := range ids {
			out = append(out, cell{ID: id, Seed: seed, Strategy: strat, Addr: addr})
		}
	}
	return out
}

func workloads() []workload {
	deep := cellsOf([]string{"f25", "f29", "f30", "f31", "f33"}, []int64{1}, "", "")
	deep = append(deep,
		cell{ID: "f16", Seed: 1, Strategy: core.SiteDistance},
		cell{ID: "f12", Seed: 1, Strategy: core.Exhaustive})
	return []workload{
		{name: "site_shallow", tailPct: 75,
			cells: cellsOf(idRange("f", 1, 22), []int64{1, 2}, "", "")},
		{name: "deep_search", tailPct: 75, cells: deep},
		{name: "path_addr", tailPct: 75,
			cells: cellsOf([]string{"f1", "f4", "f9", "f17", "f18", "f21", "f23", "f25", "f26", "f30", "f31", "f33"},
				[]int64{1}, "", core.AddrPath)},
		{name: "daemon_cold", daemon: true, tailPct: daemonTailPct},
		{name: "daemon_dedupe", daemon: true, dedupe: true, tailPct: daemonTailPct},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ids returns the distinct failure ids a workload needs targets for.
func (w workload) ids() []string {
	if w.daemon {
		return daemonIDs()
	}
	seen := map[string]bool{}
	var ids []string
	for _, c := range w.cells {
		if !seen[c.ID] {
			seen[c.ID] = true
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec mirrors BENCHMARK.json, the contract this program prints to.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// repoRoot is the checkout the benchmark was built in — the same root the
// analyzer resolves source directories against.
func repoRoot() string { return analysis.RepoRoot() }

func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(raw, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}
