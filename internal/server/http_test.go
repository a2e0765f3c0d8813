package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anduril/internal/core"
	"anduril/internal/trace"
)

func postSpec(t *testing.T, url string, spec Spec) (*http.Response, submitResponse) {
	t.Helper()
	raw, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sr
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestHTTPSubmitRunReport(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := Spec{Failure: "f4", Seed: 11}
	resp, sr := postSpec(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted || sr.Deduped {
		t.Fatalf("first POST = %d (deduped=%v), want 202", resp.StatusCode, sr.Deduped)
	}
	key := sr.Job.Key
	if key != spec.Key() {
		t.Fatalf("server derived key %s, client derives %s", key, spec.Key())
	}
	resp, sr = postSpec(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK || !sr.Deduped {
		t.Fatalf("repeat POST = %d (deduped=%v), want 200 deduped", resp.StatusCode, sr.Deduped)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		code, raw := getBody(t, ts.URL+"/jobs/"+key)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d: %s", code, raw)
		}
		var job Job
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
		if job.State == StateDone {
			break
		}
		if job.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", job)
		}
		time.Sleep(2 * time.Millisecond)
	}

	wantRep, wantTrace := serialRun(t, spec)
	code, gotCanon := getBody(t, ts.URL+"/jobs/"+key+"/report?canonical=1")
	if code != http.StatusOK || !bytes.Equal(gotCanon, canonical(t, wantRep)) {
		t.Fatalf("canonical report over HTTP (%d) diverged from serial run", code)
	}
	code, gotFull := getBody(t, ts.URL+"/jobs/"+key+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report = %d", code)
	}
	rep := &core.Report{}
	if err := json.Unmarshal(gotFull, rep); err != nil || rep.Rounds != wantRep.Rounds {
		t.Fatalf("full report failed to decode (err %v) or disagrees on rounds", err)
	}
	code, gotTrace := getBody(t, ts.URL+"/jobs/"+key+"/trace")
	if code != http.StatusOK || !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("trace over HTTP (%d) diverged from serial run", code)
	}
	// follow on a finished job degrades to the stored bytes.
	code, gotTrace = getBody(t, ts.URL+"/jobs/"+key+"/trace?follow=1")
	if code != http.StatusOK || !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("followed trace of finished job (%d) diverged", code)
	}

	code, raw := getBody(t, ts.URL+"/jobs")
	var jobs []Job
	if code != http.StatusOK || json.Unmarshal(raw, &jobs) != nil || len(jobs) != 1 {
		t.Fatalf("GET /jobs = %d %s", code, raw)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postSpec(t, ts.URL, Spec{Failure: "f999"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown failure POST = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts.URL, Spec{Failure: "f4", MaxRounds: 1000, RunsPerRound: 3}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-long job POST = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"failure":"f4","bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field POST = %d, want 400", resp.StatusCode)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/nope/report"); code != http.StatusNotFound {
		t.Fatalf("GET unknown report = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}
	s.Shutdown()
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	if resp, _ := postSpec(t, ts.URL, Spec{Failure: "f4"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
}

// A body over the 64 KiB bound is refused with 413 before it is decoded:
// the request is a valid spec padded with whitespace to 1 MiB, so only its
// size turns it away, and it neither registers a job nor runs one.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"failure":"f4",` + strings.Repeat(" ", 1<<20) + `"seed":5}`
	jobs, execs := len(s.Jobs()), s.Executions()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB POST = %d, want 413", resp.StatusCode)
	}
	if len(s.Jobs()) != jobs || s.Executions() != execs {
		t.Fatalf("an oversized body changed the daemon: %d jobs, %d executions", len(s.Jobs()), s.Executions())
	}
}

// Overload surfaces as 429 with a Retry-After the client can obey.
func TestHTTPOverloadRetryAfter(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	s.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		select {
		case <-release:
		case <-opts.Context.Done():
		}
		return &core.Report{Interrupted: true}, nil
	}
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 1})
	deadline := time.Now().Add(30 * time.Second)
	for s.Executions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 2})
	resp, _ := postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After") == "0" {
		t.Fatalf("429 without usable Retry-After header (%q)", resp.Header.Get("Retry-After"))
	}
}

// A live follower streams the snapshot plus each event as the search
// emits it — no gaps, no duplicates — and the stream ends when the job
// finishes.
func TestHTTPTraceFollowStreamsLive(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	ev1 := trace.Event{Type: trace.FreeRun, Target: "f4", Strategy: "full-feedback", Seed: 1}
	ev2 := trace.Event{Type: trace.RoundStart, Round: 1, Window: 10}
	ev3 := trace.Event{Type: trace.Outcome, Reproduced: true, Rounds: 1, Reason: trace.ReasonReproduced}
	s.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		opts.Trace.Emit(&ev1)
		close(started)
		<-release
		opts.Trace.Emit(&ev2)
		opts.Trace.Emit(&ev3)
		return &core.Report{Target: sp.Failure, Reproduced: true, Rounds: 1}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postSpec(t, ts.URL, Spec{Failure: "f4"})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}
	resp, err := http.Get(ts.URL + "/jobs/" + sr.Job.Key + "/trace?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reader := bufio.NewReader(resp.Body)
	readLine := func() string {
		type result struct {
			line string
			err  error
		}
		ch := make(chan result, 1)
		go func() {
			line, err := reader.ReadString('\n')
			ch <- result{line, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil && r.line == "" {
				return fmt.Sprintf("<err: %v>", r.err)
			}
			return r.line
		case <-time.After(30 * time.Second):
			t.Fatal("follow stream stalled")
			return ""
		}
	}
	if got, want := readLine(), string(encodeLine(ev1)); got != want {
		t.Fatalf("snapshot line = %q, want %q", got, want)
	}
	close(release)
	if got, want := readLine(), string(encodeLine(ev2)); got != want {
		t.Fatalf("live line = %q, want %q", got, want)
	}
	if got, want := readLine(), string(encodeLine(ev3)); got != want {
		t.Fatalf("outcome line = %q, want %q", got, want)
	}
	// Job finished; the trace closes and so must the stream.
	if rest, err := io.ReadAll(reader); err != nil || len(rest) != 0 {
		t.Fatalf("stream did not end cleanly after the outcome: %q, %v", rest, err)
	}
}

// A job's trace before it runs is empty, not an error: GET …/trace on a
// queued job answers 200 with no body, with or without ?follow=1, and on
// the running job its trace so far. Once the job is done the trace is the
// file the completion commit wrote, and a done job whose file is gone is a
// 500.
func TestHTTPTraceOfQueuedJob(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	started, release := make(chan struct{}), make(chan struct{})
	ev := trace.Event{Type: trace.FreeRun, Target: "f4", Strategy: "full-feedback", Seed: 1}
	s.searchFn = func(sp Spec, opts core.Options) (*core.Report, error) {
		opts.Trace.Emit(&ev)
		if sp.Seed == 1 {
			close(started)
			<-release
		}
		return &core.Report{Target: sp.Failure, Reproduced: true, Rounds: 1}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, running := postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 1})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}
	_, queued := postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 2})
	for _, query := range []string{"", "?follow=1"} {
		if code, raw := getBody(t, ts.URL+"/jobs/"+queued.Job.Key+"/trace"+query); code != http.StatusOK || len(raw) != 0 {
			t.Fatalf("trace%s of a queued job = %d %q, want 200 and no body", query, code, raw)
		}
	}
	if code, raw := getBody(t, ts.URL+"/jobs/"+running.Job.Key+"/trace"); code != http.StatusOK || !bytes.Equal(raw, encodeLine(ev)) {
		t.Fatalf("trace of the running job = %d %q, want its one event", code, raw)
	}
	close(release)
	waitIdle(t, s)
	for _, key := range []string{running.Job.Key, queued.Job.Key} {
		if code, raw := getBody(t, ts.URL+"/jobs/"+key+"/trace"); code != http.StatusOK || !bytes.Equal(raw, encodeLine(ev)) {
			t.Fatalf("trace of done job %s = %d %q, want its one event", key[:12], code, raw)
		}
	}
	if err := os.Remove(filepath.Join(s.journal.Dir(queued.Job.Key), traceFile)); err != nil {
		t.Fatal(err)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/"+queued.Job.Key+"/trace"); code != http.StatusInternalServerError {
		t.Fatalf("trace of a done job with no trace file = %d, want 500", code)
	}
}
