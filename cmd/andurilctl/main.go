// Command andurilctl is the client for anduril-server: submit and watch
// reproduction jobs, fetch reports and traces, and drive the soak/crash
// verification gates.
//
//	andurilctl submit -failure f4 [-seed 2] [-wait]
//	andurilctl status <key>
//	andurilctl list
//	andurilctl report [-canonical] <key>
//	andurilctl trace [-follow] <key>
//	andurilctl wait [-timeout 5m] <key>...
//	andurilctl health
//	andurilctl soak -jobs 1000 [-distinct 40] [-seed 1]
//
// Every command takes -server (default http://127.0.0.1:8477).
//
// soak is the determinism gate: it derives a deterministic mixed job set
// from its seed, submits all -jobs submissions (the set is smaller — the
// overlap deliberately exercises content-addressed dedupe), waits for
// every job to finish, then re-executes each distinct spec serially
// in-process and byte-compares canonical reports and traces. -submit-only
// and -verify-only split the phases so a crash harness can kill and
// restart the daemon in between: verification re-derives the same job
// set from the same seed, so lost or duplicated jobs are detected, not
// just wrong results.
//
// Exit codes: 0 success; 1 runtime failure (unreachable server, failed
// job, verification mismatch, timeout); 2 usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/server"
	"anduril/internal/trace"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return exitUsage
	}
	cmd, rest := args[0], args[1:]
	c := &ctl{stdout: stdout, stderr: stderr}
	switch cmd {
	case "submit":
		return c.submit(rest)
	case "status":
		return c.status(rest)
	case "list":
		return c.list(rest)
	case "report":
		return c.report(rest)
	case "trace":
		return c.trace(rest)
	case "wait":
		return c.wait(rest)
	case "health":
		return c.health(rest)
	case "soak":
		return c.soak(rest)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return exitOK
	default:
		fmt.Fprintf(stderr, "andurilctl: unknown command %q\n", cmd)
		usage(stderr)
		return exitUsage
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: andurilctl <submit|status|list|report|trace|wait|health|soak> [flags]")
}

type ctl struct {
	stdout io.Writer
	stderr io.Writer
	base   string
}

// flags returns a command's flag set with the shared -server flag bound.
func (c *ctl) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("andurilctl "+name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	fs.StringVar(&c.base, "server", "http://127.0.0.1:8477", "anduril-server base URL")
	return fs
}

func (c *ctl) errorf(format string, args ...any) int {
	fmt.Fprintf(c.stderr, "andurilctl: "+format+"\n", args...)
	return exitRuntime
}

// --- HTTP plumbing -------------------------------------------------------

type submitResponse struct {
	Job     server.Job `json:"job"`
	Deduped bool       `json:"deduped"`
}

// postJob submits a spec, obeying Retry-After on 429 until the deadline.
func (c *ctl) postJob(spec server.Spec, deadline time.Time) (submitResponse, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return submitResponse{}, err
	}
	for {
		resp, err := http.Post(c.base+"/jobs", "application/json", bytes.NewReader(raw))
		if err != nil {
			return submitResponse{}, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return submitResponse{}, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var sr submitResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				return submitResponse{}, err
			}
			return sr, nil
		case http.StatusTooManyRequests:
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			if secs <= 0 {
				secs = 1
			}
			if time.Now().Add(time.Duration(secs) * time.Second).After(deadline) {
				return submitResponse{}, fmt.Errorf("server overloaded past deadline: %s", body)
			}
			time.Sleep(time.Duration(secs) * time.Second)
		default:
			return submitResponse{}, fmt.Errorf("submit: %s: %s", resp.Status, body)
		}
	}
}

func (c *ctl) getJSON(path string, v any) error {
	body, err := c.getRaw(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (c *ctl) getRaw(path string) ([]byte, error) {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

// waitTerminal polls until every key reaches a terminal state. Returns
// the records by key.
func (c *ctl) waitTerminal(keys []string, deadline time.Time) (map[string]server.Job, error) {
	done := map[string]server.Job{}
	for {
		pending := 0
		for _, key := range keys {
			if _, ok := done[key]; ok {
				continue
			}
			var job server.Job
			if err := c.getJSON("/jobs/"+key, &job); err != nil {
				return nil, err
			}
			if job.Terminal() {
				done[key] = job
			} else {
				pending++
			}
		}
		if pending == 0 {
			return done, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d jobs still unfinished at deadline", pending)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// --- simple commands -----------------------------------------------------

func (c *ctl) submit(args []string) int {
	fs := c.flags("submit")
	var spec server.Spec
	var classes string
	var doWait bool
	var timeout time.Duration
	fs.StringVar(&spec.Failure, "failure", "", "failure id to reproduce (required)")
	fs.StringVar(&spec.Strategy, "strategy", "", "exploration strategy (default full-feedback)")
	fs.Int64Var(&spec.Seed, "seed", 0, "master seed (default 1)")
	fs.IntVar(&spec.MaxRounds, "max-rounds", 0, fmt.Sprintf("round cap (default %d)", core.DefaultMaxRounds))
	fs.IntVar(&spec.Window, "window", 0, fmt.Sprintf("initial flexible-window size (default %d)", core.DefaultWindow))
	fs.IntVar(&spec.Adjust, "adjust", 0, fmt.Sprintf("priority adjustment (default %d)", core.DefaultAdjust))
	fs.IntVar(&spec.RunsPerRound, "runs-per-round", 0, "extra seeds per round (default 1)")
	fs.StringVar(&classes, "fault-classes", "", "comma-separated fault classes")
	fs.StringVar(&spec.Addressing, "addressing", "", "occurrence (default) or path")
	fs.BoolVar(&doWait, "wait", false, "wait for the job to finish")
	fs.DurationVar(&timeout, "timeout", 10*time.Minute, "wait deadline (with -wait)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if spec.Failure == "" {
		fmt.Fprintln(c.stderr, "andurilctl submit: -failure is required")
		return exitUsage
	}
	if doWait && timeout <= 0 {
		fmt.Fprintf(c.stderr, "andurilctl submit: -timeout must be positive with -wait, got %v\n", timeout)
		return exitUsage
	}
	spec.FaultClasses = core.SplitFaultClasses(classes)
	sr, err := c.postJob(spec, time.Now().Add(timeout))
	if err != nil {
		return c.errorf("%v", err)
	}
	verb := "accepted"
	if sr.Deduped {
		verb = "deduped"
	}
	fmt.Fprintf(c.stdout, "%s %s (%s)\n", verb, sr.Job.Key, sr.Job.State)
	if !doWait {
		return exitOK
	}
	jobs, err := c.waitTerminal([]string{sr.Job.Key}, time.Now().Add(timeout))
	if err != nil {
		return c.errorf("%v", err)
	}
	if !c.printJob(jobs[sr.Job.Key]) {
		return exitRuntime
	}
	return exitOK
}

// printJob prints a terminal job: its state, then a done job's
// core.Summary — what anduril printed for the same search — read from its
// stored report, or a failed job's error. It reports whether the job is
// done and its report could be read.
func (c *ctl) printJob(job server.Job) bool {
	fmt.Fprintf(c.stdout, "%s: %s\n", job.Key, job.State)
	if job.State != server.StateDone {
		fmt.Fprintf(c.stdout, "error: %s\n", job.Error)
		return false
	}
	var rep core.Report
	if err := c.getJSON("/jobs/"+job.Key+"/report", &rep); err != nil {
		c.errorf("%v", err)
		return false
	}
	var root string
	if sc, ok := failures.ByID(job.Spec.Failure); ok {
		root = sc.Root.Site
	}
	for _, line := range core.Summary(&rep, root) {
		fmt.Fprintln(c.stdout, line)
	}
	return true
}

func (c *ctl) status(args []string) int {
	fs := c.flags("status")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(c.stderr, "andurilctl status: exactly one job key required")
		return exitUsage
	}
	var job server.Job
	if err := c.getJSON("/jobs/"+fs.Arg(0), &job); err != nil {
		return c.errorf("%v", err)
	}
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", "  ")
	enc.Encode(job)
	return exitOK
}

func (c *ctl) list(args []string) int {
	fs := c.flags("list")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	var jobs []server.Job
	if err := c.getJSON("/jobs", &jobs); err != nil {
		return c.errorf("%v", err)
	}
	for _, job := range jobs {
		fmt.Fprintf(c.stdout, "%s  %-8s %-4s seed=%d strategy=%s submissions=%d\n",
			job.Key[:16], job.State, job.Spec.Failure, job.Spec.Seed, job.Spec.Strategy, job.Submissions)
	}
	return exitOK
}

func (c *ctl) report(args []string) int {
	fs := c.flags("report")
	canonicalForm := fs.Bool("canonical", false, "wall-clock-normalized comparison form")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(c.stderr, "andurilctl report: exactly one job key required")
		return exitUsage
	}
	path := "/jobs/" + fs.Arg(0) + "/report"
	if *canonicalForm {
		path += "?canonical=1"
	}
	raw, err := c.getRaw(path)
	if err != nil {
		return c.errorf("%v", err)
	}
	c.stdout.Write(raw)
	fmt.Fprintln(c.stdout)
	return exitOK
}

func (c *ctl) trace(args []string) int {
	fs := c.flags("trace")
	follow := fs.Bool("follow", false, "stream live events until the job finishes")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(c.stderr, "andurilctl trace: exactly one job key required")
		return exitUsage
	}
	path := "/jobs/" + fs.Arg(0) + "/trace"
	if *follow {
		path += "?follow=1"
	}
	resp, err := http.Get(c.base + path)
	if err != nil {
		return c.errorf("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return c.errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	if _, err := io.Copy(c.stdout, resp.Body); err != nil {
		return c.errorf("%v", err)
	}
	// A followed stream ends however the job ended; the daemon says how
	// in a trailer after the last line.
	if state := resp.Trailer.Get(server.TrailerJobState); *follow && state != server.StateDone {
		return c.errorf("followed job %s is %q, not done", fs.Arg(0), state)
	}
	return exitOK
}

func (c *ctl) wait(args []string) int {
	fs := c.flags("wait")
	timeout := fs.Duration("timeout", 10*time.Minute, "deadline")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(c.stderr, "andurilctl wait: at least one job key required")
		return exitUsage
	}
	if *timeout <= 0 {
		fmt.Fprintf(c.stderr, "andurilctl wait: -timeout must be positive, got %v\n", *timeout)
		return exitUsage
	}
	jobs, err := c.waitTerminal(fs.Args(), time.Now().Add(*timeout))
	if err != nil {
		return c.errorf("%v", err)
	}
	code := exitOK
	for _, key := range fs.Args() {
		if !c.printJob(jobs[key]) {
			code = exitRuntime
		}
	}
	return code
}

func (c *ctl) health(args []string) int {
	fs := c.flags("health")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		raw, err := c.getRaw(probe)
		if err != nil {
			return c.errorf("%s: %v", probe, err)
		}
		fmt.Fprintf(c.stdout, "%s: %s", probe, raw)
	}
	return exitOK
}

// --- soak ---------------------------------------------------------------

// soakJob is one distinct spec in the derived job set plus how many of
// the -jobs submissions land on it.
type soakJob struct {
	spec        server.Spec
	key         string
	submissions int
}

// soakSet derives the deterministic job set: `distinct` candidate specs
// from the seed (mixed failures, seeds, strategies; collisions under
// content addressing merge), then `jobs` submissions distributed over
// them by the same seed stream. A candidate no submission landed on (few
// jobs over many specs) is not in the set: the daemon never hears of it.
func soakSet(seed int64, jobs, distinct int) []*soakJob {
	mix := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	strategies := []string{"full-feedback", "full-feedback", "full-feedback", "site-feedback", "random"}
	byKey := map[string]*soakJob{}
	var order []*soakJob
	ids := make([]string, 0, 34)
	for _, sc := range failures.All() {
		ids = append(ids, sc.ID)
	}
	sort.Strings(ids)
	for i := 0; i < distinct; i++ {
		x := mix(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15)
		sp := server.Spec{
			Failure:  ids[x%uint64(len(ids))],
			Seed:     int64(1 + (x>>8)%3),
			Strategy: strategies[(x>>20)%uint64(len(strategies))],
		}.Normalize()
		key := sp.Key()
		if _, dup := byKey[key]; !dup {
			j := &soakJob{spec: sp, key: key}
			byKey[key] = j
			order = append(order, j)
		}
	}
	for i := 0; i < jobs; i++ {
		x := mix(uint64(seed) ^ (uint64(i)+1)*0xD1B54A32D192ED03)
		order[x%uint64(len(order))].submissions++
	}
	set := order[:0]
	for _, j := range order {
		if j.submissions > 0 {
			set = append(set, j)
		}
	}
	return set
}

func (c *ctl) soak(args []string) int {
	fs := c.flags("soak")
	jobs := fs.Int("jobs", 1000, "total submissions to make")
	distinct := fs.Int("distinct", 40, "distinct specs the submissions are drawn from")
	seed := fs.Int64("seed", 1, "seed for the derived job set")
	submitOnly := fs.Bool("submit-only", false, "submit and exit (crash harness phase 1)")
	verifyOnly := fs.Bool("verify-only", false, "wait and verify a previously-submitted set (phase 2)")
	timeout := fs.Duration("timeout", 20*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *jobs <= 0 || *distinct <= 0 || *timeout <= 0 {
		fmt.Fprintln(c.stderr, "andurilctl soak: -jobs, -distinct and -timeout must be positive")
		return exitUsage
	}
	if *submitOnly && *verifyOnly {
		fmt.Fprintln(c.stderr, "andurilctl soak: -submit-only and -verify-only are mutually exclusive")
		return exitUsage
	}
	deadline := time.Now().Add(*timeout)
	set := soakSet(*seed, *jobs, *distinct)
	fmt.Fprintf(c.stdout, "soak: %d submissions over %d distinct jobs\n", *jobs, len(set))

	if !*verifyOnly {
		submitted := 0
		for _, j := range set {
			for n := 0; n < j.submissions; n++ {
				sr, err := c.postJob(j.spec, deadline)
				if err != nil {
					return c.errorf("submitting %s: %v", j.key[:12], err)
				}
				if sr.Job.Key != j.key {
					return c.errorf("server keyed %s as %s, client derives %s", j.spec.Failure, sr.Job.Key, j.key)
				}
				submitted++
			}
		}
		fmt.Fprintf(c.stdout, "soak: submitted %d\n", submitted)
		if *submitOnly {
			return exitOK
		}
	}

	keys := make([]string, len(set))
	for i, j := range set {
		keys[i] = j.key
	}
	records, err := c.waitTerminal(keys, deadline)
	if err != nil {
		return c.errorf("%v", err)
	}
	fmt.Fprintf(c.stdout, "soak: all %d jobs terminal\n", len(records))

	// The journal must hold exactly the derived set: a missing job was
	// lost, an extra one was duplicated or corrupted into a new key.
	var listed []server.Job
	if err := c.getJSON("/jobs", &listed); err != nil {
		return c.errorf("%v", err)
	}
	if len(listed) != len(set) {
		return c.errorf("server holds %d jobs, expected exactly %d", len(listed), len(set))
	}

	mismatches := 0
	for _, j := range set {
		job := records[j.key]
		if job.State != server.StateDone {
			c.errorf("job %s (%s seed %d): %s: %s", j.key[:12], j.spec.Failure, j.spec.Seed, job.State, job.Error)
			mismatches++
			continue
		}
		if job.Submissions != j.submissions {
			c.errorf("job %s: %d submissions journaled, %d made", j.key[:12], job.Submissions, j.submissions)
			mismatches++
		}
		wantRep, wantTrace, err := serialRun(j.spec)
		if err != nil {
			return c.errorf("serial %s: %v", j.spec.Failure, err)
		}
		gotCanon, err := c.getRaw("/jobs/" + j.key + "/report?canonical=1")
		if err != nil {
			return c.errorf("%v", err)
		}
		wantCanon, err := core.CanonicalReport(wantRep)
		if err != nil {
			return c.errorf("%v", err)
		}
		if !bytes.Equal(gotCanon, wantCanon) {
			c.errorf("job %s (%s seed %d): canonical report diverged from serial run", j.key[:12], j.spec.Failure, j.spec.Seed)
			mismatches++
		}
		gotTrace, err := c.getRaw("/jobs/" + j.key + "/trace")
		if err != nil {
			return c.errorf("%v", err)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			c.errorf("job %s (%s seed %d): trace diverged from serial run (%d vs %d bytes)",
				j.key[:12], j.spec.Failure, j.spec.Seed, len(gotTrace), len(wantTrace))
			mismatches++
		}
	}
	if mismatches > 0 {
		return c.errorf("soak FAILED: %d divergences across %d jobs", mismatches, len(set))
	}
	fmt.Fprintf(c.stdout, "soak: OK — %d jobs byte-identical to serial runs\n", len(set))
	return exitOK
}

// serialRun executes a spec in-process the way a plain serial caller
// would, returning the report and exact trace bytes — the daemon's
// ground truth.
func serialRun(spec server.Spec) (*core.Report, []byte, error) {
	sc, found := failures.ByID(spec.Failure)
	if !found {
		return nil, nil, fmt.Errorf("unknown failure %q", spec.Failure)
	}
	t, err := sc.BuildTarget()
	if err != nil {
		return nil, nil, err
	}
	opts := spec.Normalize().Options()
	var buf bytes.Buffer
	opts.Trace = trace.NewWriter(&buf)
	rep := core.Reproduce(t, opts)
	return rep, buf.Bytes(), nil
}
