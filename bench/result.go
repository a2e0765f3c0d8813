package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"anduril/internal/core"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts ops against the correctness gate and keeps the first few
// reasons so a failing run says why.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// result closes the gate: the reasons go to the log, the counts to the
// result line.
func (t *tally) result(m metrics) *result {
	for _, reason := range t.reasons {
		note("FAIL %s", reason)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// coreAgg sums the time and work fields the engine exports on its reports
// over the reproductions of a traced pass.
type coreAgg struct {
	ops                                   int
	reproduce, freeRun, init, run, decide time.Duration
	rounds, useful, injectReqs            int
	candidates, inconclusive              int
}

// add accounts one reproduction; wall is the time the caller clocked
// around core.Reproduce (or, for a daemon job, the report's own Elapsed).
func (a *coreAgg) add(rep *core.Report, wall time.Duration) {
	a.reproduce += wall
	a.freeRun += rep.FreeRunTime
	for _, rd := range rep.RoundLog {
		a.init += rd.InitTime
		a.run += rd.RunTime
		a.decide += rd.DecideTime
		a.injectReqs += rd.InjectReqs
		if rd.Injected != nil {
			a.useful++
		}
	}
	a.rounds += rep.Rounds
	a.candidates += rep.CandidateInstances
	a.inconclusive += rep.InconclusiveRounds
}

// emit prints the per-op means. decide is a child of run (decision
// latency is spent inside the trial), so self = reproduce − (free_run +
// init + run) and the four parts sum to reproduce_ms.
func (a *coreAgg) emit(m metrics) {
	n := float64(a.ops)
	if n == 0 {
		n = 1
	}
	self := a.reproduce - a.freeRun - a.init - a.run
	m.set("core.reproduce_ms", ms(a.reproduce)/n, "ms")
	m.set("core.free_run_ms", ms(a.freeRun)/n, "ms")
	m.set("core.init_ms", ms(a.init)/n, "ms")
	m.set("core.run_ms", ms(a.run)/n, "ms")
	m.set("core.decide_ms", ms(a.decide)/n, "ms")
	m.set("core.self_ms", ms(self)/n, "ms")
	m.set("core.rounds", float64(a.rounds)/n, "count")
	m.set("core.rounds_per_s", float64(a.rounds)/math.Max(a.reproduce.Seconds(), 1e-9), "1/s")
	m.set("core.inject_reqs", float64(a.injectReqs)/n, "count")
	m.set("core.candidate_instances", float64(a.candidates)/n, "count")
	m.set("core.inconclusive_rounds", float64(a.inconclusive)/n, "count")
	m.set("core.useful_round_frac", float64(a.useful)/math.Max(float64(a.rounds), 1), "ratio")
}

// rssPeakMB reads a process's peak resident set (VmHWM) from /proc.
func rssPeakMB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
