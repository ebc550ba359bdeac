package correctbench

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"correctbench/internal/obs"
)

// phaseSet collects the distinct phase names of one cell's span tree.
func phaseSet(ct CellTrace) map[string]bool {
	out := map[string]bool{}
	for _, sp := range ct.Spans {
		out[sp.Phase] = true
	}
	return out
}

// spanIDOf returns the ID of the cell's first span of a phase, or "".
func spanIDOf(ct CellTrace, phase string) string {
	for _, sp := range ct.Spans {
		if sp.Phase == phase {
			return sp.ID
		}
	}
	return ""
}

// TestJobTrace pins the Job.Trace surface on a store-backed local
// run: one span tree per cell in canonical order, the documented
// phases present, IDs unique and parents resolvable, and span IDs
// numbered store_lookup (seq 0) before queue_wait (seq 1). On a warm
// resubmit every cell degenerates to a single cached store_lookup
// span; on a storeless run queue_wait takes seq 0.
func TestJobTrace(t *testing.T) {
	c := NewClient(WithStore(NewMemoryStore(0)))
	spec := ExperimentSpec{Seed: 31, Reps: 1, Problems: testProblems, Workers: 4}
	total := 3 * len(testProblems)

	job, _, _ := drainJob(t, c, spec)
	traces := job.Trace()
	if len(traces) != total {
		t.Fatalf("Trace() returned %d cells, want %d", len(traces), total)
	}
	for i, ct := range traces {
		if ct.Index != i {
			t.Fatalf("trace %d has index %d; Cells() must be in canonical order", i, ct.Index)
		}
		if ct.Cached {
			t.Errorf("cell %d marked cached on a cold run", i)
		}
		if len(ct.Key) != 64 {
			t.Errorf("cell %d trace ID %q is not a content-address hex digest", i, ct.Key)
		}
		for _, want := range []string{"queue_wait", "store_lookup", "simulate", "grade", "store_writeback"} {
			if !phaseSet(ct)[want] {
				t.Errorf("cell %d (%s/%s) has no %s span: %+v", i, ct.Method, ct.Problem, want, ct.Spans)
			}
		}
		for _, want := range []struct {
			phase string
			seq   int
		}{{"store_lookup", 0}, {"queue_wait", 1}} {
			if got := spanIDOf(ct, want.phase); got != obs.SpanID(ct.Key, want.phase, want.seq) {
				t.Errorf("cell %d %s span ID %q, want seq %d's %q", i, want.phase, got, want.seq, obs.SpanID(ct.Key, want.phase, want.seq))
			}
		}
		ids := map[string]bool{}
		for _, sp := range ct.Spans {
			if ids[sp.ID] {
				t.Errorf("cell %d has duplicate span ID %s", i, sp.ID)
			}
			ids[sp.ID] = true
			if sp.DurUS < 0 || sp.StartUS < 0 {
				t.Errorf("cell %d span %s has negative timing (start=%d dur=%d)", i, sp.Phase, sp.StartUS, sp.DurUS)
			}
		}
		for _, sp := range ct.Spans {
			if sp.Parent != "" && !ids[sp.Parent] {
				t.Errorf("cell %d span %s has dangling parent %s", i, sp.Phase, sp.Parent)
			}
		}
	}

	// The client-level histograms saw the run.
	rows := c.PhaseLatencies()
	if len(rows) == 0 {
		t.Fatal("PhaseLatencies empty after a traced run")
	}
	seen := map[string]bool{}
	for _, row := range rows {
		seen[row.Phase] = true
		if row.Count == 0 {
			t.Errorf("phase %s has a row but zero count", row.Phase)
		}
	}
	for _, want := range []string{"queue_wait", "simulate", "grade"} {
		if !seen[want] {
			t.Errorf("PhaseLatencies missing phase %s (got %v)", want, seen)
		}
	}

	// Warm resubmit: every cell replays from the store; its trace is
	// the one-span cached form.
	warm, _, _ := drainJob(t, c, spec)
	wtraces := warm.Trace()
	if len(wtraces) != total {
		t.Fatalf("warm Trace() returned %d cells, want %d", len(wtraces), total)
	}
	for i, ct := range wtraces {
		if !ct.Cached {
			t.Errorf("warm cell %d not marked cached", i)
		}
		if len(ct.Spans) != 1 || ct.Spans[0].Phase != "store_lookup" {
			t.Errorf("warm cell %d spans = %+v, want a single store_lookup", i, ct.Spans)
		}
	}

	// Storeless traced run: no store_lookup, so queue_wait leads.
	bare, _, _ := drainJob(t, NewClient(), spec)
	btraces := bare.Trace()
	if len(btraces) != total {
		t.Fatalf("storeless Trace() returned %d cells, want %d", len(btraces), total)
	}
	for i, ct := range btraces {
		if phaseSet(ct)["store_lookup"] {
			t.Errorf("storeless cell %d has a store_lookup span", i)
		}
		if got, want := spanIDOf(ct, "queue_wait"), obs.SpanID(ct.Key, "queue_wait", 0); got != want {
			t.Errorf("storeless cell %d queue_wait span ID %q, want seq 0's %q", i, got, want)
		}
	}
}

// TestJobTraceOptOut pins the no_trace escape hatch: a job submitted
// with NoTrace records nothing and Job.Trace returns nil.
func TestJobTraceOptOut(t *testing.T) {
	spec := ExperimentSpec{Seed: 31, Reps: 1, Problems: []string{"halfadd"}, NoTrace: true}
	job, _, _ := drainJob(t, NewClient(), spec)
	if got := job.Trace(); got != nil {
		t.Fatalf("Trace() on a no_trace job = %d cells, want nil", len(got))
	}
}

// TestTraceEndpoint drives GET /v1/experiments/{id}/trace (and its
// /v1/jobs alias) over HTTP: the NDJSON body parses back into the
// job's span trees in canonical order, and a no_trace job answers
// 404.
func TestTraceEndpoint(t *testing.T) {
	c := NewClient()
	ts := httptest.NewServer(NewServer(c))
	t.Cleanup(ts.Close)

	spec := ExperimentSpec{Seed: 31, Reps: 1, Problems: testProblems}
	resp := postJSON(t, ts.URL+"/v1/experiments", spec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s", resp.Status)
	}
	job := c.Jobs()[0]
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	fetch := func(path string) []CellTrace {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("GET %s content type = %q, want application/x-ndjson", path, ct)
		}
		var out []CellTrace
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var ct CellTrace
			if err := json.Unmarshal(sc.Bytes(), &ct); err != nil {
				t.Fatalf("GET %s: bad NDJSON line %q: %v", path, sc.Text(), err)
			}
			out = append(out, ct)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	total := 3 * len(testProblems)
	traces := fetch("/v1/experiments/" + job.ID() + "/trace")
	if len(traces) != total {
		t.Fatalf("trace endpoint streamed %d cells, want %d", len(traces), total)
	}
	for i, ct := range traces {
		if ct.Index != i {
			t.Fatalf("trace line %d has index %d, want canonical order", i, ct.Index)
		}
		if len(ct.Spans) == 0 {
			t.Errorf("cell %d has no spans over the wire", i)
		}
	}
	alias := fetch("/v1/jobs/" + job.ID() + "/trace")
	if len(alias) != len(traces) {
		t.Errorf("/v1/jobs alias streamed %d cells, want %d", len(alias), len(traces))
	}

	// A no_trace job keeps no spans; the endpoint must say so, not
	// stream an empty body.
	resp = postJSON(t, ts.URL+"/v1/experiments", ExperimentSpec{
		Seed: 31, Reps: 1, Problems: []string{"halfadd"}, NoTrace: true,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("no_trace submit status = %s", resp.Status)
	}
	var opted *Job
	for _, j := range c.Jobs() {
		if j.ID() != job.ID() {
			opted = j
		}
	}
	if opted == nil {
		t.Fatal("no_trace job not retained")
	}
	if _, err := opted.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	notFound, err := http.Get(ts.URL + "/v1/experiments/" + opted.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of a no_trace job answered %s, want 404", notFound.Status)
	}
}

var (
	// seriesRe matches one Prometheus series line: a metric name, an
	// optional {label="value",...} set with double-quoted values, and a
	// value.
	seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [^ ]+$`)
	headerRe = regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$`)
)

// parseExposition validates /metrics against the Prometheus text
// format: every # HELP/# TYPE appears once per metric name, every
// series line is well formed and its metric name (modulo the summary
// _sum/_count suffixes) has a preceding # TYPE. It returns the typed
// names and the set of series names seen.
func parseExposition(t *testing.T, raw string) (types map[string]string, series map[string]bool) {
	t.Helper()
	types = map[string]string{}
	series = map[string]bool{}
	helped := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			m := headerRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed exposition comment %q", line)
			}
			kind, name := m[1], m[2]
			if kind == "HELP" {
				if helped[name] {
					t.Fatalf("duplicate # HELP for %s", name)
				}
				helped[name] = true
				continue
			}
			if _, dup := types[name]; dup {
				t.Fatalf("duplicate # TYPE for %s", name)
			}
			types[name] = m[3]
			continue
		}
		m := seriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed series line %q", line)
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && types[trimmed] == "summary" {
				base = trimmed
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("series %s has no preceding # TYPE", name)
		}
		if !helped[base] {
			t.Fatalf("series %s has no preceding # HELP", name)
		}
		series[name+m[2]] = true
	}
	return types, series
}

func scrapeRaw(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q, want the version 0.0.4 exposition type", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMetricsExposition validates the /metrics surface as Prometheus
// text exposition on a store-backed client after a traced run: format
// strictness via parseExposition, every documented metric present,
// and the phase-latency summary populated.
func TestMetricsExposition(t *testing.T) {
	c := NewClient(WithStore(NewMemoryStore(0)))
	ts := httptest.NewServer(NewServer(c))
	t.Cleanup(ts.Close)

	drainJob(t, c, ExperimentSpec{Seed: 31, Reps: 1, Problems: testProblems, Workers: 4})

	types, series := parseExposition(t, scrapeRaw(t, ts.URL))
	wantTypes := map[string]string{
		"uptime_seconds": "gauge", "jobs_active": "gauge", "jobs_total": "gauge",
		"jobs_degraded": "gauge", "queue_refusals": "counter", "cells_done": "counter",
		"cells_per_sec": "gauge", "cells_per_sec_1m": "gauge",
		"store_hits": "counter", "store_misses": "counter", "store_hit_ratio": "gauge",
		"phase_latency_us": "summary",
	}
	for name, typ := range wantTypes {
		if got, ok := types[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		} else if got != typ {
			t.Errorf("metric %s typed %q, want %q", name, got, typ)
		}
	}
	for _, want := range []string{
		`phase_latency_us{phase="simulate",quantile="0.5"}`,
		`phase_latency_us{phase="simulate",quantile="0.9"}`,
		`phase_latency_us{phase="simulate",quantile="0.99"}`,
		`phase_latency_us_sum{phase="simulate"}`,
		`phase_latency_us_count{phase="simulate"}`,
		`phase_latency_us{phase="queue_wait",quantile="0.5"}`,
		`phase_latency_us{phase="store_writeback",quantile="0.5"}`,
	} {
		if !series[want] {
			t.Errorf("series %s missing from exposition", want)
		}
	}
	// The sliding-window rate must register a run that just finished —
	// that is the satellite fix over the decaying lifetime average.
	found := false
	for s := range series {
		if s == "cells_per_sec_1m" {
			found = true
		}
	}
	if !found {
		t.Error("cells_per_sec_1m series missing")
	}
}

// TestTracingDifferentialEventStreams pins tracing as operational
// metadata only: a traced run and a no_trace run of the same spec must
// stream byte-identical events (after the two documented wall-clock
// normalizations) and render byte-identical tables, at Workers 1 and
// 8.
func TestTracingDifferentialEventStreams(t *testing.T) {
	spec := func(workers int, noTrace bool) ExperimentSpec {
		return ExperimentSpec{Seed: 47, Reps: 1, Workers: workers, NoTrace: noTrace, Problems: testProblems}
	}
	_, baseEvents, baseExp := drainJob(t, NewClient(), spec(1, true))
	baseline := marshalNormalized(t, baseEvents)
	t1, t3 := baseExp.Table1(), baseExp.Table3()

	runs := []struct {
		name    string
		workers int
		noTrace bool
	}{
		{"local_traced_w1", 1, false},
		{"local_traced_w8", 8, false},
		{"local_no_trace_w8", 8, true},
	}
	for _, run := range runs {
		job, events, exp := drainJob(t, NewClient(), spec(run.workers, run.noTrace))
		if got := marshalNormalized(t, events); string(got) != string(baseline) {
			t.Errorf("%s: event stream differs from the no_trace baseline", run.name)
		}
		if exp.Table1() != t1 {
			t.Errorf("%s: Table I differs from the no_trace baseline", run.name)
		}
		if exp.Table3() != t3 {
			t.Errorf("%s: Table III differs from the no_trace baseline", run.name)
		}
		if run.noTrace {
			if job.Trace() != nil {
				t.Errorf("%s: no_trace job recorded spans", run.name)
			}
		} else if got := len(job.Trace()); got != 3*len(testProblems) {
			t.Errorf("%s: traced %d cells, want %d", run.name, got, 3*len(testProblems))
		}
	}
}
