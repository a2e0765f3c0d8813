package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"anduril/internal/server"
)

// startDaemon runs an in-process daemon behind a test HTTP server, so
// the ctl commands are exercised end to end without binding real ports.
func startDaemon(t *testing.T) (base string) {
	t.Helper()
	s, err := server.Open(server.Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return ts.URL
}

func runCtl(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCtlSubmitWaitStatusReportTrace(t *testing.T) {
	base := startDaemon(t)
	code, out, errb := runCtl(t, "submit", "-server", base, "-failure", "f4", "-wait")
	if code != exitOK {
		t.Fatalf("submit -wait = %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "accepted ") || !strings.Contains(out, "done") {
		t.Fatalf("submit output: %s", out)
	}
	key := server.Spec{Failure: "f4"}.Key()

	// A repeat submission dedupes.
	code, out, _ = runCtl(t, "submit", "-server", base, "-failure", "f4")
	if code != exitOK || !strings.Contains(out, "deduped "+key) {
		t.Fatalf("repeat submit = %d: %s", code, out)
	}

	code, out, _ = runCtl(t, "status", "-server", base, key)
	if code != exitOK || !strings.Contains(out, `"state": "done"`) {
		t.Fatalf("status = %d: %s", code, out)
	}
	code, out, _ = runCtl(t, "list", "-server", base)
	if code != exitOK || !strings.Contains(out, "done") || !strings.Contains(out, "f4") {
		t.Fatalf("list = %d: %s", code, out)
	}
	code, out, _ = runCtl(t, "report", "-server", base, "-canonical", key)
	if code != exitOK || !strings.Contains(out, `"Reproduced"`) {
		t.Fatalf("report = %d: %s", code, out)
	}
	code, out, _ = runCtl(t, "trace", "-server", base, key)
	if code != exitOK || !strings.Contains(out, `"event":"outcome"`) {
		t.Fatalf("trace = %d: %s", code, out)
	}
	code, out, _ = runCtl(t, "wait", "-server", base, key)
	if code != exitOK || !strings.Contains(out, "done") {
		t.Fatalf("wait = %d: %s", code, out)
	}
	code, out, _ = runCtl(t, "health", "-server", base)
	if code != exitOK || !strings.Contains(out, "ok") || !strings.Contains(out, "ready") {
		t.Fatalf("health = %d: %s", code, out)
	}
}

func TestCtlUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"submit"},                               // missing -failure
		{"status"},                               // missing key
		{"report"},                               // missing key
		{"wait"},                                 // missing keys
		{"soak", "-jobs", "0"},                   // bad count
		{"soak", "-submit-only", "-verify-only"}, // exclusive
	}
	for _, args := range cases {
		if code, _, _ := runCtl(t, args...); code != exitUsage {
			t.Fatalf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestCtlServerUnreachable(t *testing.T) {
	code, _, errb := runCtl(t, "status", "-server", "http://127.0.0.1:1", "abc")
	if code != exitRuntime || errb == "" {
		t.Fatalf("unreachable server = %d (%s), want %d with message", code, errb, exitRuntime)
	}
}

// A failed job's record says why it failed, and submit -wait and wait print
// it before exiting 1. The server is canned: it accepts any submission and
// answers every poll with the failed record.
func TestCtlPrintsWhyAJobFailed(t *testing.T) {
	const why = "free run failed twice: panic: boot failure"
	spec := server.Spec{Failure: "f4"}.Normalize()
	failed := server.Job{Key: spec.Key(), Spec: spec, State: server.StateFailed, Submissions: 1, Error: why}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		queued := failed
		queued.State, queued.Error = server.StateQueued, ""
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(submitResponse{Job: queued})
	})
	mux.HandleFunc("GET /jobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(failed)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, args := range [][]string{
		{"submit", "-server", ts.URL, "-failure", "f4", "-wait"},
		{"wait", "-server", ts.URL, failed.Key},
	} {
		code, out, errb := runCtl(t, args...)
		if code != exitRuntime || !strings.Contains(out, "error: "+why+"\n") {
			t.Errorf("%s = %d, want %d with the job's error on stdout\nstdout: %s\nstderr: %s", args[0], code, exitRuntime, out, errb)
		}
	}
}

// The derived soak set is deterministic — phase-split crash harnesses
// depend on re-deriving the identical set — and the submission counts
// sum to -jobs.
func TestSoakSetDeterministic(t *testing.T) {
	a := soakSet(7, 500, 24)
	b := soakSet(7, 500, 24)
	if len(a) != len(b) {
		t.Fatalf("set sizes differ: %d vs %d", len(a), len(b))
	}
	total := 0
	for i := range a {
		if a[i].key != b[i].key || a[i].submissions != b[i].submissions {
			t.Fatalf("job %d differs across derivations", i)
		}
		total += a[i].submissions
	}
	if total != 500 {
		t.Fatalf("submissions sum to %d, want 500", total)
	}
	if len(soakSet(8, 100, 24)) == 0 || soakSet(8, 100, 24)[0].key == a[0].key {
		t.Fatal("different seeds derived the same first job")
	}
}

// soakFingerprint hashes a derived set's keys and submission counts in
// order.
func soakFingerprint(set []*soakJob) string {
	h := sha256.New()
	for _, j := range set {
		fmt.Fprintf(h, "%s %d\n", j.key, j.submissions)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// Few submissions over many specs leave some candidates with none; the
// set holds only specs the daemon will hear of, so -verify-only never
// polls a key that was never submitted (404 unknown job). The gates'
// dense sets — the crash default 300/25 and the soak default 1000/40 —
// are pinned: dropping empty candidates must not move them.
func TestSoakSetSparse(t *testing.T) {
	set := soakSet(7, 400, 150)
	total := 0
	for _, j := range set {
		if j.submissions == 0 {
			t.Fatalf("spec %s (%s) is in the set with no submission", j.key[:12], j.spec.Failure)
		}
		total += j.submissions
	}
	if len(set) != 111 || total != 400 {
		t.Fatalf("sparse set: %d specs, %d submissions; want 111 (114 candidates, 3 never drawn) and 400", len(set), total)
	}
	for _, pin := range []struct {
		seed           int64
		jobs, distinct int
		size           int
		fingerprint    string
	}{
		{7, 300, 25, 25, "ae25079fa2112156"},
		{1, 1000, 40, 36, "e1906cd9d883bb3a"},
	} {
		got := soakSet(pin.seed, pin.jobs, pin.distinct)
		if len(got) != pin.size || soakFingerprint(got) != pin.fingerprint {
			t.Errorf("soakSet(%d, %d, %d) = %d specs, fingerprint %s; want %d, %s",
				pin.seed, pin.jobs, pin.distinct, len(got), soakFingerprint(got), pin.size, pin.fingerprint)
		}
	}
}

// The sparse set end to end, phase-split the way the crash harness runs
// it: verification finds every derived key on the daemon.
func TestCtlSoakSparseVerifyOnly(t *testing.T) {
	base := startDaemon(t)
	args := []string{"-server", base, "-jobs", "12", "-distinct", "40", "-seed", "7"}
	if sparse := soakSet(7, 12, 40); len(sparse) >= 30 {
		t.Fatalf("12 submissions left %d specs in the set; the case is not sparse", len(sparse))
	}
	if code, out, errb := runCtl(t, append([]string{"soak", "-submit-only"}, args...)...); code != exitOK {
		t.Fatalf("submit-only = %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	code, out, errb := runCtl(t, append([]string{"soak", "-verify-only", "-timeout", "5m"}, args...)...)
	if code != exitOK || !strings.Contains(out, "soak: OK") {
		t.Fatalf("verify-only = %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
}

// A small end-to-end soak: submissions overlap onto distinct jobs
// (dedupe at scale), every result byte-matches a serial run.
func TestCtlSoakSmall(t *testing.T) {
	base := startDaemon(t)
	code, out, errb := runCtl(t, "soak", "-server", base, "-jobs", "40", "-distinct", "5", "-seed", "3", "-timeout", "5m")
	if code != exitOK {
		t.Fatalf("soak = %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "soak: OK") {
		t.Fatalf("soak output: %s", out)
	}
}

// Phase-split soak: submit-only, then verify-only against a daemon that
// restarted in between — the crash harness's exact shape.
func TestCtlSoakPhaseSplitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := server.Open(server.Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, out, errb := runCtl(t, "soak", "-server", ts1.URL, "-jobs", "20", "-distinct", "4", "-seed", "5", "-submit-only")
	if code != exitOK {
		t.Fatalf("submit-only = %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	// Drain mid-work and restart on the same journal.
	s1.Shutdown()
	ts1.Close()
	s2, err := server.Open(server.Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Shutdown()
	}()
	code, out, errb = runCtl(t, "soak", "-server", ts2.URL, "-jobs", "20", "-distinct", "4", "-seed", "5", "-verify-only", "-timeout", "5m")
	if code != exitOK {
		t.Fatalf("verify-only after restart = %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "soak: OK") {
		t.Fatalf("verify output: %s", out)
	}
}
