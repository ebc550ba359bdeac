package correctbench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"correctbench/internal/dataset"
	"correctbench/internal/testbench"
	"correctbench/internal/vstatic"
)

// NewServer returns the correctbenchd HTTP handler over a client:
//
//	POST   /v1/experiments        submit an ExperimentSpec; with
//	                              "stream": true the response is the
//	                              job's NDJSON event stream and the
//	                              job's lifetime is bound to the
//	                              request (disconnect = Cancel)
//	GET    /v1/experiments/{id}   job snapshot (live partial results)
//	GET    /v1/experiments/{id}/events   NDJSON event stream (replay +
//	                              live; disconnecting stops only the
//	                              stream, not the job)
//	GET    /v1/experiments/{id}/trace    per-cell span trees as NDJSON
//	                              (one CellTrace per line, canonical
//	                              cell order; also at
//	                              /v1/jobs/{id}/trace; 404 for NoTrace
//	                              jobs). Feed it to cmd/traceview.
//	DELETE /v1/experiments/{id}   cancel the job
//	GET    /v1/problems           the 156-task dataset, stable order
//	GET    /v1/llms               model profile names, stable order
//	GET    /v1/criteria           validation criterion names, stable order
//	POST   /v1/grade              grade a submitted testbench, or
//	                              generate-and-grade a task
//	GET    /v1/store/stats        result-store counters (404 when the
//	                              client has no store)
//	GET    /metrics               operational gauges in Prometheus
//	                              text exposition format (store hit
//	                              ratio, cells/s, active jobs,
//	                              refusals, per-phase latency
//	                              summaries)
//
// When the client carries a result store (correctbenchd -store-dir),
// POST /v1/experiments has resume-by-spec semantics: resubmitting an
// identical spec — after a crash, a cancel, or simply again — replays
// every already-finished cell from the store and simulates only the
// remainder, streaming the same events either way. Snapshots report
// the split as store_hits/store_misses.
//
// The handler is stdlib-only and safe for concurrent use. Job
// retention is bounded by the client (see maxRetainedJobs): snapshots
// and event streams of long-evicted finished jobs return 404.
//
// Admission control is configured with WithLimits: bounded concurrent
// jobs (globally and per client), per-client token-bucket rate limits
// on the mutating endpoints, per-request timeouts on grading, and
// request body caps. Refused work is answered with 429 + Retry-After
// (quota/rate) or 413 (body size); the defaults (DefaultLimits) keep
// everything unlimited except the body cap. The returned handler also
// carries panic recovery: a panicking request answers 500 — after
// cancelling its job, if it owned one — without killing the daemon.
func NewServer(c *Client, opts ...ServerOption) http.Handler {
	s := &server{client: c, limits: DefaultLimits(), start: time.Now()} //detlint:allow the uptime epoch, a wall-clock metric
	for _, o := range opts {
		o(s)
	}
	s.adm = newAdmission(s.limits)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.submit)
	mux.HandleFunc("GET /v1/experiments/{id}", s.snapshot)
	mux.HandleFunc("GET /v1/experiments/{id}/events", s.events)
	mux.HandleFunc("GET /v1/experiments/{id}/trace", s.trace)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace) // alias
	mux.HandleFunc("DELETE /v1/experiments/{id}", s.cancel)
	mux.HandleFunc("GET /v1/problems", s.problems)
	mux.HandleFunc("GET /v1/llms", s.llms)
	mux.HandleFunc("GET /v1/criteria", s.criteria)
	mux.HandleFunc("POST /v1/grade", s.grade)
	mux.HandleFunc("GET /v1/store/stats", s.storeStats)
	mux.HandleFunc("GET /metrics", s.metrics)
	return recoverPanics(mux)
}

type server struct {
	client *Client
	limits Limits
	adm    *admission
	start  time.Time // handler construction, the uptime_seconds epoch
}

type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	logWriteErr("JSON response", enc.Encode(v))
}

// logWriteErr reports a response body that could not be written. The
// status line is already out, so the log is the only place left to
// say so; the usual cause is a client that went away.
func logWriteErr(what string, err error) {
	if err != nil {
		log.Printf("correctbench: writing %s: %v", what, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpError{Error: err.Error()})
}

// submitRequest is the POST /v1/experiments body: an ExperimentSpec
// plus the stream flag.
type submitRequest struct {
	ExperimentSpec
	// Stream, when true, turns the response into the job's NDJSON
	// event stream and binds the job's lifetime to the HTTP request:
	// a client disconnect cancels the job within one simulation step
	// batch.
	Stream bool `json:"stream,omitempty"`
}

type submitResponse struct {
	ID         string `json:"id"`
	TotalCells int    `json:"total_cells"`
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	key := clientKey(r)
	if !s.adm.allowRate(key, time.Now()) { //detlint:allow admission rate limiting is wall-clock by design
		s.adm.tooMany(w, errors.New("rate limit exceeded"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.adm.lim.MaxBodyBytes)
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", s.adm.lim.MaxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// Claim a concurrent-job slot before spending any work on the
	// spec; the slot is held until the job finishes (however it
	// finishes), not just until this request returns.
	release, admErr := s.adm.reserveJob(key, time.Now()) //detlint:allow admission rate limiting is wall-clock by design
	if admErr != nil {
		s.adm.tooMany(w, admErr)
		return
	}
	// Detached jobs outlive the submitting request; streamed jobs are
	// bound to it.
	ctx := context.Background()
	if req.Stream {
		ctx = r.Context()
	}
	job, err := s.client.Submit(ctx, req.ExperimentSpec)
	if err != nil {
		release()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	go func() {
		<-job.done
		release()
	}()
	if !req.Stream {
		writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID(), TotalCells: job.Snapshot().TotalCells})
		return
	}
	// A panic while streaming must not leave the job running headless:
	// cancel it, then re-panic into the recovery middleware for the
	// 500 (or connection abort, if bytes already went out).
	defer func() {
		if v := recover(); v != nil {
			job.Cancel()
			panic(v)
		}
	}()
	s.streamEvents(w, r, job)
}

// streamEvents writes the job's events as NDJSON until JobDone (or
// the request context ends), flushing after every line.
func (s *server) streamEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Correctbench-Job", job.ID())
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for ev := range job.EventsContext(r.Context()) {
		line, err := MarshalEvent(ev)
		if err != nil {
			return
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *server) jobFor(w http.ResponseWriter, r *http.Request) *Job {
	job := s.client.Job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", r.PathValue("id")))
	}
	return job
}

func (s *server) snapshot(w http.ResponseWriter, r *http.Request) {
	job := s.jobFor(w, r)
	if job == nil {
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *server) events(w http.ResponseWriter, r *http.Request) {
	job := s.jobFor(w, r)
	if job == nil {
		return
	}
	s.streamEvents(w, r, job)
}

// trace streams a job's per-cell span trees as NDJSON: one CellTrace
// object per line, in canonical cell order, reflecting the cells
// released so far (a finished job streams the full grid). Tracing is
// on unless the job was submitted with no_trace, in which case this
// answers 404.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	job := s.jobFor(w, r)
	if job == nil {
		return
	}
	if !job.traced() {
		writeError(w, http.StatusNotFound, fmt.Errorf("experiment %q was submitted with no_trace", job.ID()))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Correctbench-Job", job.ID())
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, ct := range job.Trace() {
		if err := enc.Encode(ct); err != nil {
			return
		}
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobFor(w, r)
	if job == nil {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

type problemInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Difficulty int    `json:"difficulty"`
}

func (s *server) problems(w http.ResponseWriter, r *http.Request) {
	out := make([]problemInfo, 0, len(dataset.All()))
	for _, p := range dataset.All() {
		out = append(out, problemInfo{Name: p.Name, Kind: p.Kind.String(), Difficulty: p.Difficulty})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) llms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, LLMNames())
}

func (s *server) criteria(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CriterionNames())
}

func (s *server) storeStats(w http.ResponseWriter, r *http.Request) {
	stats, ok := s.client.StoreStats()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no result store configured (start correctbenchd with -store-dir)"))
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// gradeRequest is the POST /v1/grade body. With Testbench set, that
// testbench is graded as-is; otherwise one is generated for the
// problem with the task spec fields and then graded (a whole-task
// round trip).
type gradeRequest struct {
	Problem string `json:"problem"`
	TaskSpec
	Testbench *wireTestbench `json:"testbench,omitempty"`
}

// wireTestbench is the serializable subset of a hybrid testbench:
// the scenario list (driver track) and the checker module source.
type wireTestbench struct {
	Scenarios     []wireScenario `json:"scenarios"`
	CheckerSource string         `json:"checker_source"`
	CheckerTop    string         `json:"checker_top,omitempty"`
}

type wireScenario struct {
	Name  string              `json:"name,omitempty"`
	Steps []map[string]uint64 `json:"steps"`
}

type gradeResponse struct {
	Problem     string `json:"problem"`
	Grade       string `json:"grade"`
	Generated   bool   `json:"generated"`
	Validated   bool   `json:"validated,omitempty"`
	Corrections int    `json:"corrections,omitempty"`
	Reboots     int    `json:"reboots,omitempty"`
	TokensIn    int    `json:"tokens_in,omitempty"`
	TokensOut   int    `json:"tokens_out,omitempty"`
	Scenarios   int    `json:"scenarios"`
	// Lint carries static-analysis diagnostics for the testbench's
	// checker module (advisory; grading never depends on them).
	Lint []vstatic.Diagnostic `json:"lint,omitempty"`
}

// lintChecker statically analyzes a testbench's checker module for
// the grade response, on the parse grading already made. Analysis
// failures (e.g. an unparsable checker) yield no diagnostics here —
// grading itself surfaces them as grades.
func lintChecker(tb *Testbench) []vstatic.Diagnostic {
	if tb == nil || tb.CheckerSource == "" {
		return nil
	}
	f, err := tb.CheckerFile()
	if err != nil {
		return nil
	}
	results, err := vstatic.AnalyzeFile(f, tb.CheckerTop)
	if err != nil {
		return nil
	}
	var out []vstatic.Diagnostic
	for _, r := range results {
		out = append(out, r.Diags...)
	}
	return out
}

func (s *server) grade(w http.ResponseWriter, r *http.Request) {
	if !s.adm.allowRate(clientKey(r), time.Now()) { //detlint:allow admission rate limiting is wall-clock by design
		s.adm.tooMany(w, errors.New("rate limit exceeded"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.adm.lim.MaxBodyBytes)
	var req gradeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", s.adm.lim.MaxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	p := dataset.ByName(req.Problem)
	if p == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown problem %q", req.Problem))
		return
	}
	// Surface spec errors as 400 up front; any later failure is a
	// run-time fault, not a bad request.
	if _, err := req.TaskSpec.resolve(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Grading is synchronous request work, so it gets the per-request
	// timeout; a deadline hit surfaces as 504 via statusFor.
	ctx := r.Context()
	if s.adm.lim.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.adm.lim.RequestTimeout)
		defer cancel()
	}
	resp := gradeResponse{Problem: req.Problem}
	var tb *Testbench
	if req.Testbench != nil {
		tb = wireToTestbench(p, req.Testbench)
	} else {
		res, err := s.client.GenerateTestbench(ctx, req.Problem, req.TaskSpec)
		if err != nil {
			writeError(w, statusFor(ctx, err), err)
			return
		}
		tb = res.Testbench
		resp.Generated = true
		resp.Validated = res.Validated
		resp.Corrections = res.Corrections
		resp.Reboots = res.Reboots
		resp.TokensIn = res.TokensIn
		resp.TokensOut = res.TokensOut
	}
	grade, err := s.client.Grade(ctx, tb, req.Seed)
	if err != nil {
		writeError(w, statusFor(ctx, err), err)
		return
	}
	resp.Grade = grade.String()
	resp.Scenarios = tb.ScenarioCount()
	resp.Lint = lintChecker(tb)
	writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is nginx's 499: the client went away
// before the response. Go's stdlib has no name for it, but it is the
// accurate status for a request-context cancel — the old mapping of
// both context errors to 408 blamed the client for server-side
// deadlines and vice versa.
const statusClientClosedRequest = 499

// statusFor maps run-time failures to HTTP statuses: a client
// disconnect (the request context itself was cancelled) to 499, a
// server-imposed deadline to 504, any other context cancellation —
// e.g. the daemon draining — to 503, and everything else to 500. Spec
// validation has already returned 400 by the time this is consulted,
// so remaining errors are server-side faults.
func statusFor(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		if ctx != nil && ctx.Err() != nil {
			return statusClientClosedRequest
		}
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// wireToTestbench rebuilds a gradable testbench from its wire form.
// Unknown stimulus ports or a broken checker surface as grades
// (Failed/Eval0) exactly as they would for a generated testbench. The
// driver is the one rendered from the scenarios, so a driver-track
// syntax error does not survive the wire.
func wireToTestbench(p *Problem, w *wireTestbench) *Testbench {
	tb := &Testbench{
		Problem:       p,
		CheckerSource: w.CheckerSource,
		CheckerTop:    w.CheckerTop,
		CheckerSticky: -1,
	}
	if tb.CheckerTop == "" {
		tb.CheckerTop = p.Top
	}
	for i, sc := range w.Scenarios {
		scenario := testbench.Scenario{Index: i + 1, Name: sc.Name}
		if scenario.Name == "" {
			scenario.Name = fmt.Sprintf("scenario_%d", i+1)
		}
		for _, inputs := range sc.Steps {
			scenario.Steps = append(scenario.Steps, testbench.Step{Inputs: inputs})
		}
		tb.Scenarios = append(tb.Scenarios, scenario)
	}
	return tb
}
