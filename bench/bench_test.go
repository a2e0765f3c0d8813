package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the in-process set-up measurement re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-setup-probe" {
		os.Exit(setupProbe(os.Args[2]))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickSmoke runs every workload at smoke size — twice untraced under
// different seeds, once traced — and holds the output to BENCHMARK.json:
// every named metric printed, finite and with its unit, no op failed, and
// rounds_total identical across the two seeds. The daemon workloads are
// skipped under -short.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", def.Name)
		}
		if def.Unit == "" {
			t.Errorf("metric %s has no unit", def.Name)
		}
	}
	ws, err := newWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	defer ws.close()

	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads()))
	}
	for _, named := range spec.Workloads {
		w, ok := workloadByName(named.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", named.Name)
		}
		if w.daemon && testing.Short() {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64, traced bool) *result {
				cfg := config{seed: seed, seconds: 1, quick: true, trace: traced,
					traceOut: filepath.Join(ws.dir, "spans-"+w.name+".jsonl")}
				var res *result
				var err error
				if w.daemon {
					res, err = runDaemon(w, cfg, ws)
				} else {
					res, err = runInproc(w, cfg, ws)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := checkMetrics(spec, res, traced); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("seed %d traced=%v: %d of %d ops failed", seed, traced, res.Failed, res.Attempted)
				}
				for name, mv := range res.Metrics {
					if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Unit == "" {
						t.Errorf("metric %s = %v %q", name, mv.Value, mv.Unit)
					}
				}
				return res
			}
			a, b := run(1, false), run(2, false)
			if ra, rb := a.Metrics["rounds_total"].Value, b.Metrics["rounds_total"].Value; ra != rb || ra <= 0 {
				t.Errorf("rounds_total = %v under seed 1, %v under seed 2; want one positive count", ra, rb)
			}
			for _, def := range spec.EndToEnd {
				if a.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", def.Name, a.Metrics[def.Name].Value)
				}
			}
			run(1, true)
			if info, err := os.Stat(filepath.Join(ws.dir, "spans-"+w.name+".jsonl")); err != nil || info.Size() == 0 {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Fatalf("quartiles = %v, %v; Python gives 1.75, 5.25", q1, q3)
	}
}
