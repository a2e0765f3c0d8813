// Command bench is the repository's benchmark: five workloads that price
// the engine in every fault class and the daemon, end to end and layer by
// layer, from outside — it only calls public functions of the packages
// under test and drives anduril-server over HTTP. BENCHMARK.json at the
// repository root names the metrics it prints; bench/README.md explains
// them.
//
//	bash bench/run.sh --workload W --seed N --seconds T --trace 0|1   one run, result on the last line
//	bash bench/run.sh -seed N [-trace 1] [-quick]                     every workload, one JSON document
//	bash bench/run.sh -seed N -repeat R                               R sets, spread and verdict per metric
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is what one run was asked to do.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	quick    bool
}

func (c config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setupRepeats is how many times a run sets up; setup_s is their median.
func (c config) setupRepeats(w workload) int {
	switch {
	case c.quick:
		return 1
	case w.daemon:
		return 3
	}
	return 5
}

// minPasses is the least number of timed passes of an in-process run
// (of untraced+traced pairs in a traced one), however slow the machine.
func (c config) minPasses() int {
	if c.quick {
		return 1
	}
	return 2
}

// populateBlocks sizes daemon_dedupe's completed set: blocks of one spec
// per failure id.
func (c config) populateBlocks() int {
	if c.quick {
		return 1
	}
	return 4
}

func (c config) leadBlocks() int {
	if c.quick {
		return 1
	}
	return leadBlocks
}

// probeScale multiplies the layer probes' iteration counts.
func (c config) probeScale() int {
	if c.quick {
		return 1
	}
	return 10
}

func (c config) table2Rounds() int {
	if c.quick {
		return 20
	}
	return 500
}

// nproc is the CPU count every sizing decision hangs on: daemon workers,
// client connections, the parallel half of the Table 2 probe.
func nproc() int { return runtime.GOMAXPROCS(0) }

// note prints a line of commentary. Standard output carries results only.
func note(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

func main() { os.Exit(run()) }

func run() int {
	var (
		name       = flag.String("workload", "", "workload to run (default: every workload of BENCHMARK.json)")
		seed       = flag.Int64("seed", 1, "benchmark seed: orders each workload's fixed request set")
		seconds    = flag.Float64("seconds", 0, "seconds to measure for (default: run_seconds of BENCHMARK.json; 1 with -quick)")
		traced     = flag.Int("trace", 0, "1 = traced run: record spans, run the layer probes, print the per-layer metrics")
		traceOut   = flag.String("trace-out", "", "span file of a traced run (default: .bench_build/spans-<workload>.jsonl)")
		quick      = flag.Bool("quick", false, "smoke sizes: one set-up, short probes")
		repeat     = flag.Int("repeat", 0, "run this many full sets (seed, seed+1, …) and judge each metric's spread against its bound")
		setupChild = flag.String("setup-probe", "", "internal: build the named workload's targets and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments: %v\n", flag.Args())
		return 2
	}
	os.Unsetenv("ANDURIL_CACHE_DIR") // set-up is measured without the analysis disk cache
	if *setupChild != "" {
		return setupProbe(*setupChild)
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced != 0, traceOut: *traceOut, quick: *quick}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
		if cfg.quick {
			cfg.seconds = 1
		}
	}
	switch {
	case *repeat > 0:
		return runRepeat(spec, cfg, *name, *repeat)
	case *name == "":
		doc, ok := runSet(spec, cfg, "")
		out, _ := json.MarshalIndent(doc, "", "  ") // maps of numbers and strings: cannot fail
		fmt.Println(string(out))
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return runOne(spec, w, cfg)
}

// runOne performs a single run and prints its result as the last line of
// standard output. It exits non-zero when the run could not be measured
// or any op failed the correctness gate.
func runOne(spec *benchSpec, w workload, cfg config) int {
	ws, err := newWorkspace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer ws.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ws.close()
		os.Exit(130)
	}()
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(repoRoot(), ".bench_build", "spans-"+w.name+".jsonl")
	}

	var res *result
	if w.daemon {
		res, err = runDaemon(w, cfg, ws)
	} else {
		res, err = runInproc(w, cfg, ws)
	}
	if err == nil {
		err = checkMetrics(spec, res, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, _ := json.Marshal(res) // numbers were checked finite: cannot fail
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkMetrics holds a result to the contract: exactly the metrics
// BENCHMARK.json names for this kind of run, each finite, each with the
// declared unit.
func checkMetrics(spec *benchSpec, res *result, traced bool) error {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	named := map[string]bool{}
	for _, def := range want {
		named[def.Name] = true
		got, ok := res.Metrics[def.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", def.Name)
		case got.Unit != def.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", def.Name, got.Unit, def.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is not finite", def.Name)
		}
	}
	for name := range res.Metrics {
		if !named[name] {
			return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no op attempted")
	}
	return nil
}

// child runs one workload in a process of its own — so peak memory,
// allocation state and the analysis cache start clean for every workload
// — and returns its result line.
func child(w string, cfg config, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", w, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", w, runErr)
	}
	return res, nil
}

// machine describes where the numbers were taken.
type machine struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func thisMachine() machine {
	return machine{Nproc: runtime.NumCPU(), GOMAXPROCS: nproc(), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH}
}

// setResult is one workload's share of a set.
type setResult struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailFrac  float64 `json:"fail_frac"`
	Metrics   metrics `json:"metrics"`
	Layers    metrics `json:"layers,omitempty"`
}

// setDoc is the one document a full set prints.
type setDoc struct {
	Machine   machine              `json:"machine"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Workloads map[string]setResult `json:"workloads"`
}

// runSet runs every workload (or only the named one) untraced and, when
// cfg.trace is set, once more traced.
func runSet(spec *benchSpec, cfg config, only string) (setDoc, bool) {
	doc := setDoc{Machine: thisMachine(), Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]setResult{}}
	ok := true
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		res, err := child(w.Name, cfg, false)
		if err != nil {
			note("%v", err)
			ok = false
			continue
		}
		sr := setResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			FailFrac: float64(res.Failed) / float64(max(res.Attempted, 1)), Metrics: res.Metrics}
		if cfg.trace {
			layers, err := child(w.Name, cfg, true)
			if err != nil {
				note("%v", err)
				ok = false
			} else {
				sr.Layers = layers.Metrics
				sr.Correct = sr.Correct && layers.Correct
			}
		}
		ok = ok && sr.Correct
		doc.Workloads[w.Name] = sr
	}
	return doc, ok
}
