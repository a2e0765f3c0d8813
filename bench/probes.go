package main

import (
	"fmt"
	"path/filepath"
	"time"

	"anduril/internal/analysis"
	"anduril/internal/checkpoint"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/eval"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/logging"
	"anduril/internal/simdisk"
	"anduril/internal/simnet"
	"anduril/internal/trace"
)

// Layer probes: fixed-iteration measurements of one layer each, through
// its public functions, independent of the workload. They run in every
// traced run so that each per-layer metric is measured, not assumed, on
// every workload; none of them is gated.

// systems returns the first dataset scenario of each target system, in
// dataset order: the representative whose workload the probes execute.
func systems() []*failures.Scenario {
	seen := map[string]bool{}
	var out []*failures.Scenario
	for _, s := range failures.All() {
		if !seen[s.System] {
			seen[s.System] = true
			out = append(out, s)
		}
	}
	return out
}

// timeN returns the median wall time of n calls of f, in milliseconds.
func timeN(n int, f func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = ms(time.Since(start))
	}
	return median(samples)
}

// perOpNS times n iterations of f as one interval and returns ns per
// iteration.
func perOpNS(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func layerProbes(cfg config, ws *workspace, m metrics) error {
	scale := cfg.probeScale()
	if err := analysisProbe(m); err != nil {
		return err
	}
	if err := systemProbes(scale, m); err != nil {
		return err
	}
	kernelProbes(scale, m)
	injectProbes(scale, m)
	if err := traceEncodeProbe(scale, m); err != nil {
		return err
	}
	if err := checkpointProbe(scale, ws, m); err != nil {
		return err
	}
	return evalProbe(cfg, m)
}

// analysisProbe prices the uncached static analysis of all six systems
// and reports how often the optional disk cache answered during this
// process (never, while ANDURIL_CACHE_DIR is unset).
func analysisProbe(m metrics) error {
	start := time.Now()
	for _, s := range systems() {
		if _, err := analysis.AnalyzePackages(s.SrcDirs); err != nil {
			return fmt.Errorf("analyze %s: %w", s.System, err)
		}
	}
	m.set("analysis.analyze_ms", ms(time.Since(start)), "ms")
	hits, misses := analysis.CacheCounters()
	frac := 0.0
	if hits+misses > 0 {
		frac = float64(hits) / float64(hits+misses)
	}
	m.set("analysis.cache_hit_frac", frac, "ratio")
	return nil
}

// systemProbes runs, per target system, the unit every trial is made of
// — one fault-free cluster.Execute — and the per-round log work: the diff
// of that run's log against the failure log, and parsing its rendering.
func systemProbes(scale int, m metrics) error {
	var events int
	var execTotalMS float64
	var compareMS float64
	var lines int
	var parseWall time.Duration
	for _, s := range systems() {
		t, err := s.BuildTarget()
		if err != nil {
			return err
		}
		var res *cluster.Result
		execMS := timeN(3*scale, func() { res = cluster.Execute(1, nil, false, s.Workload, s.Horizon) })
		events += 3 * scale * res.Events
		execTotalMS += 3 * float64(scale) * execMS
		m.set("cluster.execute_ms."+s.System, execMS, "ms")
		m.set("des.events_per_execute."+s.System, float64(res.Events), "count")

		compareMS += timeN(3*scale, func() { logdiff.Compare(res.Entries, t.FailureLog) })

		text := res.RenderLog()
		start := time.Now()
		for i := 0; i < scale; i++ {
			lines += len(logging.Parse(text))
		}
		parseWall += time.Since(start)
	}
	m.set("des.events_per_s", float64(events)/(execTotalMS/1e3), "1/s")
	m.set("logdiff.compare_ms", compareMS, "ms")
	m.set("logging.parse_lines_per_s", float64(lines)/parseWall.Seconds(), "1/s")
	return nil
}

// kernelProbes prices the simulation substrate bare: the DES event loop,
// one simnet send with its delivery, one simdisk append and sync.
func kernelProbes(scale int, m metrics) {
	n := 100_000 * scale
	sim := des.New(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			sim.Post("a", 10, tick)
		}
	}
	sim.Post("a", 10, tick)
	start := time.Now()
	sim.Run(des.Time(1) << 60)
	m.set("des.kernel_events_per_s", float64(fired)/time.Since(start).Seconds(), "1/s")

	env := cluster.NewEnv(1, nil)
	env.FI.KeepTrace = false
	delivered := 0
	env.Net.Handle("b", "ping", "b", func(simnet.Message, func(interface{}, error)) { delivered++ })
	sends := 20_000 * scale
	msg := simnet.Message{From: "a", To: "b", Type: "ping"}
	start = time.Now()
	for delivered < sends {
		for i := 0; i < 64; i++ { // a batch in flight, as a target's fan-out has
			env.Net.Send("probe.send", msg) // a fault-free plan never fails a send
		}
		env.Sim.Run(des.Time(1) << 60)
	}
	m.set("simnet.send_ns", float64(time.Since(start).Nanoseconds())/float64(delivered), "ns")

	disk := simdisk.New(env.FI, env.Log)
	payload := make([]byte, 128)
	m.set("simdisk.append_ns", perOpNS(sends, func(i int) {
		disk.Append("probe.append", "wal", payload)
		if i%4096 == 4095 { // a WAL segment's worth, then roll, so the file stays small
			disk.Delete("probe.delete", "wal")
		}
	}), "ns")
	m.set("simdisk.sync_ns", perOpNS(sends, func(int) { disk.Sync("probe.sync", "wal") }), "ns")
}

// injectProbes prices one runtime reach against a ten-candidate window
// plan that never fires, in occurrence and in path addressing.
func injectProbes(scale int, m metrics) {
	sites := []string{"probe.s0", "probe.s1", "probe.s2", "probe.s3"}
	var occ, path []inject.Instance
	for i := 0; i < 10; i++ {
		occ = append(occ, inject.Instance{Site: "probe.absent", Occurrence: i + 1})
		path = append(path, inject.Instance{Site: "probe.absent", Path: fmt.Sprintf("probe.absent#%d", i+1)})
	}
	n := 200_000 * scale
	rt := inject.NewRuntime(inject.Window(occ))
	rt.KeepTrace = false
	m.set("inject.reach_ns", perOpNS(n, func(i int) { rt.Reach(sites[i%len(sites)], inject.IO) }), "ns")

	rt = inject.NewRuntime(inject.Window(path))
	rt.KeepTrace = false
	m.set("inject.reach_path_ns", perOpNS(n, func(i int) { rt.Reach(sites[i%len(sites)], inject.IO) }), "ns")
}

// traceEncodeProbe prices the hand-rolled JSONL encoder on the real event
// stream of one f4 reproduction.
func traceEncodeProbe(scale int, m metrics) error {
	s, _ := failures.ByID("f4")
	t, err := s.BuildTarget()
	if err != nil {
		return err
	}
	mem := &trace.Memory{}
	core.Reproduce(t, core.Options{Seed: 1, MaxRounds: 500, Trace: mem})
	if len(mem.Events) == 0 {
		return fmt.Errorf("trace probe: f4 emitted no events")
	}
	var buf []byte
	n := 2_000 * scale
	m.set("trace.append_event_ns", perOpNS(n, func(i int) {
		buf = trace.AppendEvent(buf[:0], &mem.Events[i%len(mem.Events)])
	}), "ns")
	return nil
}

// checkpointProbe prices the durable envelope every journal write, search
// checkpoint and report goes through: saves and loads of a 4 KB payload
// on the filesystem the daemon's data directory is on.
func checkpointProbe(scale int, ws *workspace, m metrics) error {
	path := filepath.Join(ws.dir, "probe.ck.json")
	payload := struct{ Blob []byte }{Blob: make([]byte, 3000)} // ~4 KB once base64-encoded
	n := 20 * scale
	saves := make([]float64, n)
	for i := range saves {
		start := time.Now()
		if err := checkpoint.Save(path, "bench-probe", 1, payload); err != nil {
			return err
		}
		saves[i] = ms(time.Since(start))
	}
	loads := make([]float64, n)
	for i := range loads {
		start := time.Now()
		if _, err := checkpoint.Load(path, "bench-probe", 1); err != nil {
			return err
		}
		loads[i] = ms(time.Since(start))
	}
	m.set("checkpoint.save_ms", median(saves), "ms")
	m.set("checkpoint.load_ms", median(loads), "ms")
	return nil
}

// evalProbe regenerates Table 2 serially and on every CPU. Its time is
// mostly baselines running into the round cap — no user's cost, so it is
// a harness probe and not a workload.
func evalProbe(cfg config, m metrics) error {
	opt := eval.Options{Seed: 1, MaxRounds: cfg.table2Rounds(), Workers: 1}
	start := time.Now()
	if _, err := eval.Table2Efficacy(opt, nil); err != nil {
		return err
	}
	serial := time.Since(start)
	opt.Workers = nproc()
	start = time.Now()
	if _, err := eval.Table2Efficacy(opt, nil); err != nil {
		return err
	}
	m.set("eval.table2_s", serial.Seconds(), "s")
	m.set("parallel.map_speedup", serial.Seconds()/time.Since(start).Seconds(), "ratio")
	return nil
}
