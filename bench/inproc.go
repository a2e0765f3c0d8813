package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"time"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

// buildTargets builds the explorer targets for ids the way a CLI user's
// process does (static analysis included, once per system) and returns
// the time it took.
func buildTargets(ids []string) (map[string]*core.Target, time.Duration, error) {
	start := time.Now()
	targets := make(map[string]*core.Target, len(ids))
	for _, id := range ids {
		s, ok := failures.ByID(id)
		if !ok {
			return nil, 0, fmt.Errorf("no dataset failure %q", id)
		}
		t, err := s.BuildTarget()
		if err != nil {
			return nil, 0, fmt.Errorf("build target %s: %w", id, err)
		}
		targets[id] = t
	}
	return targets, time.Since(start), nil
}

// setupProbe is the child side of the in-process set-up measurement:
// build the workload's targets in a fresh process and exit.
func setupProbe(name string) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if _, _, err := buildTargets(w.ids()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// inprocSetup times n fresh processes building the workload's targets —
// what every CLI invocation pays before its search starts, including
// package initialisation and the uncached static analysis — each at
// reference speed (see reference.go).
func inprocSetup(w workload, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var samples []float64
	clock := &refClock{}
	clock.read()
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-probe", w.name)
		cmd.Stderr = os.Stderr
		cmd.Env = childEnv()
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		end := time.Now()
		clock.read()
		samples = append(samples, end.Sub(start).Seconds()*clock.scale(start, end))
	}
	return samples, nil
}

// timingSink wraps the JSONL trace encoder the CLIs use, clocking every
// Emit and counting what it writes.
type timingSink struct {
	w      *trace.Writer
	bytes  countWriter
	events int
	dur    time.Duration
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return io.Discard.Write(p) }

func newTimingSink() *timingSink {
	s := &timingSink{}
	s.w = trace.NewWriter(&s.bytes)
	return s
}

func (s *timingSink) Emit(ev *trace.Event) {
	start := time.Now()
	s.w.Emit(ev)
	s.dur += time.Since(start)
	s.events++
}

// inproc drives one in-process workload on one goroutine.
type inproc struct {
	w       workload
	targets map[string]*core.Target
	hashes  [][sha256.Size]byte // canonical-report hash per cell, from the first pass
	rounds  int                 // rounds of one pass
	tally   tally
}

// firstPass runs every cell once, untimed: it warms the process, fixes
// the canonical-report hash every later pass must repeat, and is where
// each script is replayed through core.Verify.
func (r *inproc) firstPass() {
	r.hashes = make([][sha256.Size]byte, len(r.w.cells))
	for i, c := range r.w.cells {
		t := r.targets[c.ID]
		rep := core.Reproduce(t, c.options())
		r.tally.attempted++
		switch {
		case !rep.Reproduced || rep.Script == nil:
			r.tally.fail("%s: not reproduced in %d rounds", c, rep.Rounds)
		case !core.Verify(t, *rep.Script, rep.ScriptSeed):
			r.tally.fail("%s: script %v does not replay under seed %d", c, *rep.Script, rep.ScriptSeed)
		}
		canon, err := core.CanonicalReport(rep)
		if err != nil {
			r.tally.fail("%s: canonical report: %v", c, err)
		}
		r.hashes[i] = sha256.Sum256(canon)
		r.rounds += rep.Rounds
	}
}

// passOut is what one timed pass produced.
type passOut struct {
	wall    time.Duration  // summed over the calls into the engine
	scaled  float64        // the same in ms at reference speed (see refClock)
	reports []*core.Report // indexed like order
	walls   []time.Duration
	sink    *timingSink
}

// allocCount sums the heap allocations made inside core.Reproduce calls
// (and nothing else: the reference readings between them allocate too).
type allocCount struct{ mallocs, bytes uint64 }

// pass runs every cell once in the given order, reading the CPU reference
// between reproductions. With a recorder it also traces: a sink on every
// search and spans around every call. With allocs it counts allocations,
// from outside the timed interval.
func (r *inproc) pass(order []int, clock *refClock, rec *recorder, allocs *allocCount) passOut {
	out := passOut{reports: make([]*core.Report, len(order)), walls: make([]time.Duration, len(order))}
	if rec != nil {
		out.sink = newTimingSink()
	}
	starts := make([]time.Time, len(order))
	for k, i := range order {
		c := r.w.cells[i]
		opts := c.options()
		if out.sink != nil {
			opts.Trace = out.sink
		}
		clock.tick()
		var before, after runtime.MemStats
		if allocs != nil {
			runtime.ReadMemStats(&before)
		}
		starts[k] = time.Now()
		out.reports[k] = core.Reproduce(r.targets[c.ID], opts)
		out.walls[k] = time.Since(starts[k])
		if allocs != nil {
			runtime.ReadMemStats(&after)
			allocs.mallocs += after.Mallocs - before.Mallocs
			allocs.bytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	clock.read()
	for k, wall := range out.walls {
		out.wall += wall
		out.scaled += ms(wall) * clock.scale(starts[k], starts[k].Add(wall))
	}
	if rec != nil {
		r.recordPass(rec, order, starts, out)
	}
	return out
}

// recordPass writes the spans of one traced pass: the op, each
// core.Reproduce under it, and under those the phases the report itself
// accounts for (free run, ranking init, trial run with decision latency
// inside it) plus the clocked sink emission.
func (r *inproc) recordPass(rec *recorder, order []int, starts []time.Time, out passOut) {
	op := rec.add(span{Name: "op." + r.w.name, Start: starts[0], Dur: out.wall,
		Attrs: map[string]any{"reproductions": len(order)}})
	for k, i := range order {
		c, rep, at := r.w.cells[i], out.reports[k], starts[k]
		var a coreAgg
		a.add(rep, out.walls[k])
		id := rec.add(span{Parent: op, Op: op, Name: "core.Reproduce", Start: at, Dur: out.walls[k],
			Attrs: map[string]any{"cell": c.String(), "rounds": rep.Rounds}})
		phase := at
		for _, p := range []struct {
			name string
			dur  time.Duration
		}{{"core.free_run", a.freeRun}, {"core.init", a.init}, {"core.run", a.run}} {
			pid := rec.add(span{Parent: id, Op: op, Name: p.name, Start: phase, Dur: p.dur, Synth: true})
			if p.name == "core.run" {
				rec.add(span{Parent: pid, Op: op, Name: "inject.decide", Start: phase, Dur: a.decide, Synth: true,
					Attrs: map[string]any{"requests": a.injectReqs}})
			}
			phase = phase.Add(p.dur)
		}
	}
	rec.add(span{Parent: op, Op: op, Name: "trace.Emit", Start: starts[0], Dur: out.sink.dur, Overlay: true,
		Attrs: map[string]any{"events": out.sink.events, "bytes": out.sink.bytes.n}})
}

// check holds a pass against the first one: every search reproduced and
// every canonical report is byte-for-byte (by hash) what it was.
func (r *inproc) check(order []int, reports []*core.Report) {
	for k, i := range order {
		c, rep := r.w.cells[i], reports[k]
		r.tally.attempted++
		if !rep.Reproduced {
			r.tally.fail("%s: not reproduced in %d rounds", c, rep.Rounds)
			continue
		}
		canon, err := core.CanonicalReport(rep)
		if err != nil || sha256.Sum256(canon) != r.hashes[i] {
			r.tally.fail("%s: canonical report differs from the first pass", c)
		}
	}
}

// runInproc measures one in-process workload.
func runInproc(w workload, cfg config, ws *workspace) (*result, error) {
	r := &inproc{w: w}
	m := metrics{}
	if !cfg.trace {
		samples, err := inprocSetup(w, cfg.setupRepeats(w))
		if err != nil {
			return nil, err
		}
		m.set("setup_s", median(samples), "s")
	}
	targets, buildTime, err := buildTargets(w.ids())
	if err != nil {
		return nil, err
	}
	r.targets = targets
	r.firstPass()

	rng := rand.New(rand.NewSource(cfg.seed))
	order := make([]int, len(w.cells))
	for i := range order {
		order[i] = i
	}
	shuffle := func() { rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] }) }

	runtime.GC()
	clock := &refClock{}
	if !cfg.trace {
		var opMS, raw []float64
		for start := time.Now(); time.Since(start) < cfg.measure() || len(opMS) < cfg.minPasses(); {
			shuffle()
			out := r.pass(order, clock, nil, nil)
			opMS, raw = append(opMS, out.scaled), append(raw, ms(out.wall))
			r.check(order, out.reports)
		}
		m.set("repro_per_s", float64(len(opMS)*len(w.cells))/(sum(opMS)/1e3), "1/s")
		m.set("op_ms_p50", median(opMS), "ms")
		m.set("op_ms_tail", percentile(opMS, w.tailPct), "ms")
		m.set("rounds_total", float64(r.rounds), "count")
		rss, err := rssPeakMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		m.set("rss_peak_mb", rss, "MB")
		note("%s: %d passes of %d reproductions, tail = p%.0f; raw wall p50 %.3f ms, tail %.3f ms",
			w.name, len(opMS), len(w.cells), w.tailPct, median(raw), percentile(raw, w.tailPct))
		return r.tally.result(m), nil
	}

	// Traced run: untraced and traced passes alternate so drift hits both
	// alike; the untraced ones also carry the allocation counters.
	rec := &recorder{}
	var agg coreAgg
	var sinkDur time.Duration
	var sinkEvents int
	var sinkBytes int64
	var plainMS, tracedMS float64 // at reference speed, so drift between the two kinds of pass cancels
	var allocs allocCount
	pairs := 0
	for start := time.Now(); time.Since(start) < cfg.measure()*2/5 || pairs < cfg.minPasses(); pairs++ {
		shuffle()
		out := r.pass(order, clock, nil, &allocs)
		plainMS += out.scaled
		r.check(order, out.reports)

		shuffle()
		out = r.pass(order, clock, rec, nil)
		tracedMS += out.scaled
		r.check(order, out.reports)
		for k := range order {
			agg.add(out.reports[k], out.walls[k])
		}
		sinkDur += out.sink.dur
		sinkEvents += out.sink.events
		sinkBytes += out.sink.bytes.n
	}
	agg.ops = pairs
	agg.emit(m)
	n := float64(pairs)
	repros := n * float64(len(w.cells))
	m.set("failures.build_target_ms", ms(buildTime), "ms")
	m.set("trace.emit_ms", ms(sinkDur)/n, "ms")
	m.set("trace.events", float64(sinkEvents)/n, "count")
	m.set("trace.bytes", float64(sinkBytes)/n, "B")
	m.set("core.allocs_per_repro", float64(allocs.mallocs)/repros, "count")
	m.set("core.bytes_per_repro", float64(allocs.bytes)/repros, "B")
	m.set("trace_overhead_frac", 1-plainMS/tracedMS, "ratio")

	if err := layerProbes(cfg, ws, m); err != nil {
		return nil, err
	}
	if err := serverProbe(ws, rec, m, &r.tally); err != nil {
		return nil, err
	}
	if err := rec.write(cfg.traceOut); err != nil {
		return nil, err
	}
	note("%s: %d untraced + %d traced passes, spans in %s", w.name, pairs, pairs, cfg.traceOut)
	return r.tally.result(m), nil
}
