package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// HTTP API. Everything is JSON (traces are JSONL); keys are the
// content-addressed job keys Submit derives.
//
//	POST /jobs              submit a spec → 202 (accepted) or 200 (deduped)
//	                        429 + Retry-After when the queue is full,
//	                        400 invalid spec, 413 body over 64 KiB,
//	                        503 draining
//	GET  /jobs              all job records, sorted by key
//	GET  /jobs/{key}        one job record
//	GET  /jobs/{key}/report final report; ?canonical=1 for the
//	                        wall-clock-normalized comparison form
//	GET  /jobs/{key}/trace  trace JSONL, empty until the job runs;
//	                        ?follow=1 streams live events until the job
//	                        finishes, never dropping a slow follower
//	GET  /healthz           liveness: 200 once the journal is open
//	GET  /readyz            readiness: 200 accepting, 503 draining
type submitResponse struct {
	Job     Job  `json:"job"`
	Deduped bool `json:"deduped"`
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{key}", s.handleJob)
	mux.HandleFunc("GET /jobs/{key}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{key}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// maxSpecBytes bounds a submitted body; a normalized spec is under 1 KB.
const maxSpecBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decode spec: %w", err))
		return
	}
	job, deduped, err := s.Submit(spec)
	var overload *OverloadError
	switch {
	case errors.As(err, &overload):
		w.Header().Set("Retry-After", strconv.Itoa(int(overload.RetryAfter.Seconds())))
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrBadSpec):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	case deduped:
		writeJSON(w, http.StatusOK, submitResponse{Job: job, Deduped: true})
	default:
		writeJSON(w, http.StatusAccepted, submitResponse{Job: job})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("key"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	job, ok := s.Job(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	if job.State != StateDone {
		httpError(w, http.StatusConflict, fmt.Errorf("job is %s; a report exists only for done jobs", job.State))
		return
	}
	var raw []byte
	var err error
	if r.URL.Query().Get("canonical") != "" {
		raw, err = s.CanonicalReportJSON(key)
	} else {
		raw, err = s.ReportJSON(key)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	job, ok := s.Job(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	follow := r.URL.Query().Get("follow") != ""
	w.Header().Set("Content-Type", "application/x-ndjson")

	if follow && !job.Terminal() {
		if tb, live := s.liveTrace(key); live {
			followTrace(w, r, tb)
			return
		}
	}
	raw, err := s.TraceJSONL(key)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(raw)
}

// followTrace streams a live job's trace: the log so far, then every
// event as it is emitted, until the log closes (the attempt ended) or the
// client leaves.
func followTrace(w http.ResponseWriter, r *http.Request, tb *traceBuffer) {
	w.WriteHeader(http.StatusOK)
	for off := 0; ; {
		p, closed, more := tb.Read(off)
		if _, err := w.Write(p); err != nil || closed {
			return
		}
		flush(w)
		off += len(p)
		if more == nil {
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-more:
		}
	}
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
