package correctbench

import "correctbench/internal/obs"

// Tracing surface: every job collects, by default, one span tree per
// experiment cell covering its whole execution path — store_lookup,
// queue_wait, simulate with sim_elaborate/sim_compile/sim_run
// sub-spans, grade, and store_writeback. Span IDs are deterministic (derived from the cell's
// content address, harness.CellKey); the durations are wall clock.
//
// Traces are operational metadata in exactly the sense of
// CellFinished.Duration: they never appear in the event stream, the
// tables, or the result store, so a traced run and a NoTrace run are
// byte-identical everywhere the reproducibility contract applies.
// Read them through Job.Trace, GET /v1/experiments/{id}/trace
// (NDJSON, one CellTrace per line), or cmd/traceview.

// CellTrace is one cell's span tree: identity (canonical index,
// method, rep, problem, content address), whether it was replayed
// from the store (Cached), and the spans in start order.
type CellTrace = obs.CellTrace

// TraceSpan is one phase span of a CellTrace: a deterministic ID,
// the parent span's ID (empty for roots), the phase name, and the
// start offset / duration in microseconds relative to the job run's
// trace epoch.
type TraceSpan = obs.Span

// PhaseStats is one per-phase latency summary: observation
// count, total microseconds, and interpolated p50/p90/p99. The
// /metrics phase_latency_us summaries are rendered from these rows.
type PhaseStats = obs.PhaseStats

// Trace returns the per-cell span trees collected so far, sorted by
// canonical cell index. Safe to call while the job runs (it reports
// the cells released up to now) and after it finishes (the full
// grid). Returns nil when the job was submitted with NoTrace.
func (j *Job) Trace() []CellTrace {
	return j.trace.Cells()
}

// traced reports whether the job collects traces (NoTrace unset).
func (j *Job) traced() bool { return j.trace != nil }

// PhaseLatencies returns the client's aggregated phase-latency
// summary rows — every traced cell of every job this client ran,
// one row per phase, sorted — the same data /metrics exposes
// as phase_latency_us.
func (c *Client) PhaseLatencies() []PhaseStats {
	return c.obs.Snapshot()
}
