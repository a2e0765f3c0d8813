package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"anduril/internal/core"
	"anduril/internal/server"
)

// coldSequence is daemon_cold's job stream: job i is failure
// perm_b[i mod n] at engine seed coldSeed0+b, b = i div n, so every spec
// is new to the daemon. The benchmark seed picks each block's order.
type coldSequence struct {
	ids   []string
	perms [][]int
	next  atomic.Int64
}

func newColdSequence(seed int64) *coldSequence {
	s := &coldSequence{ids: daemonIDs()}
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < coldSeeds; b++ {
		s.perms = append(s.perms, rng.Perm(len(s.ids)))
	}
	return s
}

// take returns the next never-seen spec, or false once until is past or
// the sequence is spent.
func (s *coldSequence) take(until time.Time) (server.Spec, bool) {
	if time.Now().After(until) {
		return server.Spec{}, false
	}
	i := int(s.next.Add(1) - 1)
	b := i / len(s.ids)
	if b >= len(s.perms) {
		return server.Spec{}, false
	}
	return daemonSpec(s.ids[s.perms[b][i%len(s.ids)]], coldSeed0+int64(b)), true
}

// specBlock is every daemon failure id at one engine seed.
func specBlock(seed int64) []server.Spec {
	var specs []server.Spec
	for _, id := range daemonIDs() {
		specs = append(specs, daemonSpec(id, seed))
	}
	return specs
}

// populateSpecs is the completed set daemon_dedupe resubmits from.
func populateSpecs(blocks int) []server.Spec {
	var specs []server.Spec
	for b := 0; b < blocks; b++ {
		specs = append(specs, specBlock(coldSeed0+int64(b))...)
	}
	return specs
}

// dedupeDraws resubmits completed specs until until: each client draws
// from its own seeded stream.
func dedupeDraws(seed int64, done []server.Spec, until time.Time) func(int) (server.Spec, bool) {
	rngs := make([]*rand.Rand, nproc())
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*int64(len(rngs)) + int64(i)))
	}
	return func(client int) (server.Spec, bool) {
		if time.Now().After(until) {
			return server.Spec{}, false
		}
		return done[rngs[client].Intn(len(done))], true
	}
}

// daemonRun is the state of one daemon workload run.
type daemonRun struct {
	w       workload
	cfg     config
	ws      *workspace
	ctx     context.Context
	targets map[string]*core.Target
	tally   tally

	d           *daemon
	prepared    []*job // warm-up or populate jobs of the live daemon
	submissions int    // submissions made to the live daemon
}

// prepare replaces the live daemon with a fresh one brought to the state
// the workload starts from — one job per failure id done, so every target
// is built, as in a long-running daemon; for daemon_dedupe the whole
// completed set in place. It returns how long that took, at reference disk
// speed: the workload's set-up time.
func (r *daemonRun) prepare(rec *recorder) (time.Duration, error) {
	if r.d != nil {
		if err := r.d.stop(); err != nil {
			return 0, err
		}
	}
	ref := startDiskRef(r.ws.dir)
	start := time.Now()
	d, err := r.ws.startDaemon()
	if err != nil {
		ref.finish()
		return 0, err
	}
	specs := specBlock(warmSeed)
	if r.w.dedupe {
		specs = populateSpecs(r.cfg.populateBlocks())
	}
	r.d = d
	r.prepared = drive(r.ctx, d, listed(specs), false, rec)
	end := time.Now()
	samples, err := ref.finish()
	if err != nil {
		return 0, err
	}
	r.submissions = len(r.prepared)
	r.tally.count(r.prepared)
	took := end.Sub(start)
	return time.Duration(float64(took) * newDiskScale(start, end, samples).mean), nil
}

// phase runs the workload's closed loop for dur, alongside the disk
// reference, and returns its ops with their numbers at reference speed.
func (r *daemonRun) phase(dur time.Duration, seq *coldSequence, rec *recorder) ([]*job, opStats, error) {
	ref := startDiskRef(r.ws.dir)
	start := time.Now()
	var jobs []*job
	if r.w.dedupe {
		done := populateSpecs(r.cfg.populateBlocks())
		jobs = drive(r.ctx, r.d, dedupeDraws(r.cfg.seed, done, start.Add(dur)), true, rec)
	} else {
		jobs = drive(r.ctx, r.d, func(int) (server.Spec, bool) { return seq.take(start.Add(dur)) }, false, rec)
	}
	end := time.Now()
	samples, err := ref.finish()
	r.tally.count(jobs)
	r.submissions += len(jobs)
	return jobs, statsOf(jobs, newDiskScale(start, end, samples), end), err
}

// sampleCost is what the serial re-runs of the verification sample cost
// in process: the engine price of the daemon's job mix.
type sampleCost struct {
	n              int
	mallocs, bytes uint64
	emit           time.Duration
	events         int
	traceBytes     int64
}

// verifySample re-runs a seeded 5 % sample of jobs serially in process,
// through the same server.Spec.Options() the daemon uses, and requires
// the daemon's canonical report to match byte for byte. With traced set
// each sampled spec runs once more into a timing sink.
func (r *daemonRun) verifySample(jobs []*job, traced bool) (cost sampleCost) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	n := min(max(len(jobs)/20, 5), len(jobs))
	c := newClient(r.d.base)
	defer c.hc.CloseIdleConnections()
	var before, after runtime.MemStats
	for _, k := range rng.Perm(len(jobs))[:n] {
		j := jobs[k]
		if j.err != nil {
			continue
		}
		status, got, err := c.do(r.ctx, http.MethodGet, "/jobs/"+j.rec.Key+"/report?canonical=1", nil)
		if err != nil || status != http.StatusOK {
			r.tally.fail("%s seed %d: canonical report: status %d: %v", j.spec.Failure, j.spec.Seed, status, err)
			continue
		}
		t, opts := r.targets[j.spec.Failure], j.rec.Spec.Options()
		runtime.ReadMemStats(&before)
		rep := core.Reproduce(t, opts)
		runtime.ReadMemStats(&after)
		cost.n++
		cost.mallocs += after.Mallocs - before.Mallocs
		cost.bytes += after.TotalAlloc - before.TotalAlloc
		want, err := core.CanonicalReport(rep)
		if err != nil || !bytes.Equal(got, want) {
			r.tally.fail("%s seed %d: daemon report differs from the serial in-process run", j.spec.Failure, j.spec.Seed)
		}
		if traced {
			sink := newTimingSink()
			opts.Trace = sink
			core.Reproduce(t, opts)
			cost.emit += sink.dur
			cost.events += sink.events
			cost.traceBytes += sink.bytes.n
		}
	}
	return cost
}

// checkJournal reads every job record back over the API: all must be
// done, and their summed Submissions must equal the submissions the run
// made (a dedupe op adds one to an existing record and nothing else
// may). It returns the records' summed rounds.
func (r *daemonRun) checkJournal() (rounds int) {
	c := newClient(r.d.base)
	defer c.hc.CloseIdleConnections()
	status, raw, err := c.do(r.ctx, http.MethodGet, "/jobs", nil)
	var recs []server.Job
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(raw, &recs)
	}
	if err != nil || status != http.StatusOK {
		r.tally.fail("list jobs: status %d: %v", status, err)
		return 0
	}
	submissions := 0
	for _, rec := range recs {
		submissions += rec.Submissions
		rounds += rec.Rounds
		if rec.State != server.StateDone {
			r.tally.fail("job %s (%s) left %s", rec.Key[:12], rec.Spec.Failure, rec.State)
		}
	}
	if submissions != r.submissions {
		r.tally.fail("journal holds %d submissions, the run made %d", submissions, r.submissions)
	}
	return rounds
}

// leadBlocks is how many leading blocks of daemon_cold's sequence
// rounds_total sums over: the same specs on every run, whatever the
// run's job count.
const leadBlocks = 5

// leadRounds sums the rounds of the sequence's leading blocks. A run too
// slow to finish them fails the gate rather than report a smaller sum.
func (r *daemonRun) leadRounds(jobs []*job) int {
	lead := map[string]bool{}
	for _, sp := range populateSpecs(r.cfg.leadBlocks()) {
		lead[sp.Key()] = true
	}
	rounds, found := 0, 0
	for _, j := range jobs {
		if j.err == nil && lead[j.rec.Key] {
			rounds += j.rec.Rounds
			found++
		}
	}
	if found != len(lead) {
		r.tally.fail("only %d of the %d leading jobs finished in the measured time", found, len(lead))
	}
	return rounds
}

// opStats are the end-to-end numbers of a timed phase at reference disk
// speed (see diskScale); rawMS is the unscaled wall clock, for the log.
type opStats struct {
	perSec float64
	p50    float64
	tail   float64
	rawMS  []float64
}

// daemonTailPct is the tail percentile of both daemon workloads. daemon_dedupe
// completes enough ops for p99, but only p95 has a reference statistic
// that tracks it on both workloads.
const daemonTailPct = 95

func statsOf(jobs []*job, scale diskScale, end time.Time) opStats {
	var s opStats
	var scaled []float64
	for _, j := range jobs {
		if j.err == nil {
			s.rawMS = append(s.rawMS, ms(j.total))
			scaled = append(scaled, ms(j.total)*scale.at(j.start))
		}
	}
	s.p50 = median(scaled)
	s.tail = percentile(s.rawMS, daemonTailPct) * scale.p90
	if wall := scale.wall(end); wall > 0 {
		s.perSec = float64(len(scaled)) / wall
	}
	return s
}

// runDaemon measures daemon_cold or daemon_dedupe.
func runDaemon(w workload, cfg config, ws *workspace) (*result, error) {
	// The hard deadline of the whole workload: past it every request
	// fails, so unfinished ops count as failures instead of hanging the run.
	ctx, cancel := context.WithTimeout(context.Background(), 3*cfg.measure()+90*time.Second)
	defer cancel()
	r := &daemonRun{w: w, cfg: cfg, ws: ws, ctx: ctx}
	m := metrics{}
	targets, buildTime, err := buildTargets(w.ids())
	if err != nil {
		return nil, err
	}
	r.targets = targets
	if _, err := ws.serverBinary(); err != nil { // built, if it must be, before anything is timed
		return nil, err
	}
	seq := newColdSequence(cfg.seed)

	if !cfg.trace {
		var setups []float64
		for i := 0; i < cfg.setupRepeats(w); i++ {
			took, err := r.prepare(nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		timed, st, err := r.phase(cfg.measure(), seq, nil)
		if err != nil {
			return nil, err
		}
		rss, err := rssPeakMB(r.d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rounds := r.checkJournal()
		if w.dedupe {
			r.verifySample(r.prepared, false)
		} else {
			r.verifySample(timed, false)
			rounds = r.leadRounds(timed)
		}
		if err := r.d.stop(); err != nil {
			return nil, err
		}
		m.set("setup_s", median(setups), "s")
		m.set("repro_per_s", st.perSec, "1/s")
		m.set("op_ms_p50", st.p50, "ms")
		m.set("op_ms_tail", st.tail, "ms")
		m.set("rounds_total", float64(rounds), "count")
		m.set("rss_peak_mb", rss, "MB")
		note("%s: %d ops by %d clients, tail = p%.0f; raw wall p50 %.3f ms, tail %.3f ms",
			w.name, len(st.rawMS), nproc(), w.tailPct, median(st.rawMS), percentile(st.rawMS, w.tailPct))
		return r.tally.result(m), nil
	}

	// Traced run: a phase with spans off, then one with spans on; the
	// per-layer numbers come from the second.
	rec := &recorder{}
	if _, err := r.prepare(rec); err != nil {
		return nil, err
	}
	plainJobs, plain, err := r.phase(cfg.measure()/5, seq, nil)
	if err != nil {
		return nil, err
	}
	tracedJobs, traced, err := r.phase(cfg.measure()/5, seq, rec)
	if err != nil {
		return nil, err
	}
	cold, dedupe, verify := tracedJobs, []*job(nil), append(plainJobs, tracedJobs...)
	if w.dedupe {
		cold, dedupe, verify = r.prepared, tracedJobs, r.prepared
	} else {
		// Resubmit some finished jobs so the dedupe path is priced here too.
		var again []server.Spec
		for _, j := range tracedJobs[:min(len(tracedJobs), 100)] {
			if j.err == nil {
				again = append(again, j.spec)
			}
		}
		if err := underDiskRef(ws.dir, func() { dedupe = drive(ctx, r.d, listed(again), true, rec) }); err != nil {
			return nil, err
		}
		r.tally.count(dedupe)
		r.submissions += len(dedupe)
	}
	cost := r.verifySample(verify, true)
	r.checkJournal()

	// The engine's own account of the traced ops, from the reports the
	// clients fetched. On daemon_dedupe this is work the cache saved.
	var agg coreAgg
	for _, j := range tracedJobs {
		if j.err != nil {
			continue
		}
		rep := &core.Report{}
		if err := json.Unmarshal(j.reportRaw, rep); err != nil {
			r.tally.fail("%s seed %d: decode report: %v", j.spec.Failure, j.spec.Seed, err)
			continue
		}
		agg.add(rep, rep.Elapsed)
		agg.ops++
	}
	agg.emit(m)
	n := float64(max(cost.n, 1))
	m.set("core.allocs_per_repro", float64(cost.mallocs)/n, "count")
	m.set("core.bytes_per_repro", float64(cost.bytes)/n, "B")
	m.set("trace.emit_ms", ms(cost.emit)/n, "ms")
	m.set("trace.events", float64(cost.events)/n, "count")
	m.set("trace.bytes", float64(cost.traceBytes)/n, "B")
	m.set("failures.build_target_ms", ms(buildTime), "ms")
	m.set("trace_overhead_frac", 1-traced.perSec/plain.perSec, "ratio")
	if err := layerProbes(cfg, ws, m); err != nil {
		return nil, err
	}
	if err := serverMetrics(m, r.d, cold, dedupe); err != nil {
		return nil, err
	}
	if err := r.d.stop(); err != nil {
		return nil, err
	}
	if err := rec.write(cfg.traceOut); err != nil {
		return nil, err
	}
	note("%s: %d untraced + %d traced ops, spans in %s", w.name, len(plain.rawMS), len(traced.rawMS), cfg.traceOut)
	return r.tally.result(m), nil
}

// serverMetrics prices the server layer from the client side: cold jobs
// (submit, execution wait, report) and dedupe resubmissions. It needs
// checkpoint.save_ms in m: saves_equiv_per_job expresses a cold job in
// durable saves, which takes the disk's speed out of the number.
func serverMetrics(m metrics, d *daemon, cold, dedupe []*job) error {
	var submit, wait, report, total, dsubmit []float64
	polls, shed := 0, 0
	for _, j := range cold {
		if j.shed {
			shed++
		}
		if j.err != nil {
			continue
		}
		submit = append(submit, ms(j.submit))
		wait = append(wait, ms(j.wait))
		report = append(report, ms(j.report))
		total = append(total, ms(j.total))
		polls += j.polls
	}
	for _, j := range dedupe {
		if j.shed {
			shed++
		}
		if j.err == nil {
			dsubmit = append(dsubmit, ms(j.submit))
		}
	}
	if len(total) == 0 || len(dsubmit) == 0 {
		return fmt.Errorf("server layer: no successful cold or dedupe op to price")
	}
	journal, err := d.journalBytes()
	if err != nil {
		return err
	}
	jobs, err := d.jobDirs()
	if err != nil {
		return err
	}
	m.set("server.submit_ms", median(submit), "ms")
	m.set("server.exec_wait_ms", median(wait), "ms")
	m.set("server.report_ms", median(report), "ms")
	m.set("server.polls_per_job", float64(polls)/float64(len(total)), "count")
	m.set("server.dedupe_submit_ms", median(dsubmit), "ms")
	m.set("server.shed_frac", float64(shed)/float64(len(cold)+len(dedupe)), "ratio")
	m.set("server.journal_bytes_per_job", float64(journal)/float64(jobs), "B")
	m.set("server.saves_equiv_per_job", median(total)/m["checkpoint.save_ms"].Value, "ratio")
	return nil
}

// serverProbe prices the server layer for a workload that does not use
// it: against a live, warmed-up daemon, one block of cold jobs and then
// the same block resubmitted.
func serverProbe(ws *workspace, rec *recorder, m metrics, t *tally) error {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	d, err := ws.startDaemon()
	if err != nil {
		return err
	}
	warm := drive(ctx, d, listed(specBlock(warmSeed)), false, nil) // builds the daemon's targets; not priced
	specs := specBlock(coldSeed0)
	var cold, dedupe []*job
	if err := underDiskRef(ws.dir, func() {
		cold = drive(ctx, d, listed(specs), false, rec)
		dedupe = drive(ctx, d, listed(specs), true, rec)
	}); err != nil {
		return err
	}
	t.count(append(append(warm, cold...), dedupe...))
	if err := serverMetrics(m, d, cold, dedupe); err != nil {
		return err
	}
	return d.stop()
}
