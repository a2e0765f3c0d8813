package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// calibrate times a fixed spin of integer work: the machine's speed at
// this instant, independent of the program under test.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 200_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // keeps the loop from being optimised away
		note("calibration spin hit zero")
	}
	return time.Since(start).Seconds()
}

// verdict is the judgement of one end-to-end metric on one workload over
// the repeated sets, by the acceptance driver's two rules.
type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Min      float64 `json:"min"`
	Median   float64 `json:"median"`
	Max      float64 `json:"max"`
	Spread   float64 `json:"spread"` // (q3 − q1) ÷ median over all sets
	Drift    float64 `json:"drift"`  // how much worse the second half's median is than the first's, as a share
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

type repeatDoc struct {
	Machine  machine   `json:"machine"`
	Sets     int       `json:"sets"`
	Seconds  float64   `json:"seconds"`
	Noisy    []int     `json:"noisy_sets"` // sets whose start and end calibration differ by more than 15 %
	Spins    []float64 `json:"calibration_s"`
	Failed   int       `json:"failed_ops"`
	Verdicts []verdict `json:"verdicts"`
	Pass     bool      `json:"pass"`
}

// runRepeat runs n full sets, set k with seed+k as the driver does, and
// judges every end-to-end metric: its spread over the sets must stay
// within its bound (setup_s excepted), and the median of the second half
// of the sets may not be worse than the first half's by more than the
// bound — the two-sets-agree criterion.
func runRepeat(spec *benchSpec, cfg config, only string, n int) int {
	doc := repeatDoc{Machine: thisMachine(), Sets: n, Seconds: cfg.seconds, Pass: true}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for k := 0; k < n; k++ {
		c := cfg
		c.seed = cfg.seed + int64(k)
		c.trace = false
		before := calibrate()
		set, ok := runSet(spec, c, only)
		after := calibrate()
		doc.Spins = append(doc.Spins, before, after)
		if math.Abs(after-before)/math.Min(after, before) > 0.15 {
			doc.Noisy = append(doc.Noisy, k)
		}
		doc.Pass = doc.Pass && ok
		for w, sr := range set.Workloads {
			doc.Failed += sr.Failed
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, mv := range sr.Metrics {
				values[w][name] = append(values[w][name], mv.Value)
			}
		}
		note("set %d of %d done (calibration %.3fs → %.3fs)", k+1, n, before, after)
	}
	for _, w := range spec.Workloads {
		for _, def := range spec.EndToEnd {
			v := values[w.Name][def.Name]
			if len(v) == 0 {
				continue
			}
			s := sorted(v)
			vd := verdict{Workload: w.Name, Metric: def.Name, Unit: def.Unit, Bound: def.Bound,
				Min: s[0], Median: median(v), Max: s[len(s)-1], Spread: spread(v)}
			if len(v) >= 2 {
				first, second := median(v[:len(v)/2]), median(v[len(v)/2:])
				vd.Drift = (second - first) / first
				if def.Better == "higher" {
					vd.Drift = (first - second) / first
				}
			}
			vd.OK = vd.Drift <= def.Bound && (def.Name == "setup_s" || vd.Spread <= def.Bound)
			doc.Pass = doc.Pass && vd.OK
			doc.Verdicts = append(doc.Verdicts, vd)
			fmt.Fprintf(os.Stderr, "%-14s %-13s median %12.4f %-5s spread %6.2f%% drift %+6.2f%% bound %5.1f%% %s\n",
				w.Name, def.Name, vd.Median, def.Unit, 100*vd.Spread, 100*vd.Drift, 100*def.Bound, okWord(vd.OK))
		}
	}
	out, _ := json.MarshalIndent(doc, "", "  ") // plain numbers and strings: cannot fail
	fmt.Println(string(out))
	if !doc.Pass {
		return 1
	}
	return 0
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
