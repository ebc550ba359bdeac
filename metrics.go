package correctbench

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// GET /metrics: the daemon's operational gauges in Prometheus text
// exposition format (each metric preceded by # HELP and # TYPE
// lines, labeled series grouped under one header). Everything here is
// operational metadata — the same class of data as
// CellFinished.Duration — and never feeds back into scheduling or
// results; experiments stay byte-reproducible no matter what these
// counters say.
//
//	uptime_seconds          seconds since the handler was built
//	jobs_active             experiments running right now
//	jobs_total              jobs retained (running + finished)
//	jobs_degraded           retained jobs that ran in store-degraded mode
//	queue_refusals          submits/grades answered 429 (quota or rate)
//	cells_done              cells released across retained jobs
//	cells_per_sec           cells_done / uptime_seconds (lifetime average)
//	cells_per_sec_1m        cells released per second over the last 60s
//	                        (sliding window; decays to 0 when idle,
//	                        which the lifetime average does not)
//	store_hits              result-store lookups that found a cell
//	store_misses            lookups that simulated instead
//	store_hit_ratio         hits / (hits + misses), 0 when idle
//	phase_latency_us{phase,quantile}  p50/p90/p99 execution latency
//	                        per phase (store_lookup, queue_wait,
//	                        simulate, sim_elaborate, sim_compile,
//	                        sim_run, grade, store_writeback), plus
//	                        _sum/_count series — a Prometheus summary
//	                        fed by every traced cell
//
// Store lines appear only on store-backed clients; phase_latency_us
// series only once a traced cell has completed.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	// head emits the # HELP / # TYPE header for a metric name, exactly
	// once per name no matter how many labeled series follow.
	head := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	val := func(v any) string {
		switch x := v.(type) {
		case float64:
			return fmt.Sprintf("%.3f", x)
		case bool:
			if x {
				return "1"
			}
			return "0"
		default:
			return fmt.Sprintf("%v", x)
		}
	}
	line := func(series string, v any) {
		fmt.Fprintf(&b, "%s %s\n", series, val(v))
	}
	single := func(name, typ, help string, v any) {
		head(name, typ, help)
		line(name, v)
	}

	uptime := time.Since(s.start).Seconds()
	single("uptime_seconds", "gauge", "Seconds since the metrics handler was built.", uptime)

	jobs := s.client.Jobs()
	var cellsDone, degraded, running int
	for _, j := range jobs {
		snap := j.Snapshot()
		cellsDone += snap.CellsDone
		if snap.StoreDegraded {
			degraded++
		}
		if snap.State == JobRunning {
			running++
		}
	}
	active, refused := s.adm.counters()
	// adm.active counts reserved HTTP job slots; jobs submitted through
	// the Go API (embedded servers) only show in the retention scan.
	// Report whichever view is larger so neither path undercounts.
	if running > active {
		active = running
	}
	single("jobs_active", "gauge", "Experiments running right now.", active)
	single("jobs_total", "gauge", "Jobs retained by the client (running + finished).", len(jobs))
	single("jobs_degraded", "gauge", "Retained jobs that ran in store-degraded mode.", degraded)
	single("queue_refusals", "counter", "Submits and grades answered 429 (quota or rate).", refused)
	single("cells_done", "counter", "Cells released across retained jobs.", cellsDone)
	rate := 0.0
	if uptime > 0 {
		rate = float64(cellsDone) / uptime
	}
	single("cells_per_sec", "gauge", "Lifetime average cell completion rate (cells_done / uptime_seconds).", rate)
	single("cells_per_sec_1m", "gauge", "Cells released per second over the last 60 seconds (sliding window).",
		s.client.obs.Rate(time.Now())) //detlint:allow a wall-clock rate, operational metadata

	if stats, ok := s.client.StoreStats(); ok {
		single("store_hits", "counter", "Result-store lookups that found a cell.", stats.Hits)
		single("store_misses", "counter", "Result-store lookups that simulated instead.", stats.Misses)
		ratio := 0.0
		if total := stats.Hits + stats.Misses; total > 0 {
			ratio = float64(stats.Hits) / float64(total)
		}
		single("store_hit_ratio", "gauge", "store_hits / (store_hits + store_misses), 0 when idle.", ratio)
	}

	if rows := s.client.PhaseLatencies(); len(rows) > 0 {
		head("phase_latency_us", "summary",
			"Execution latency per phase in microseconds, from traced cells (p50/p90/p99 interpolated from power-of-two buckets).")
		series := func(row PhaseStats, extra string) string {
			labels := fmt.Sprintf("phase=%q", row.Phase)
			if extra != "" {
				labels += "," + extra
			}
			return "{" + labels + "}"
		}
		for _, row := range rows {
			line("phase_latency_us"+series(row, `quantile="0.5"`), row.P50)
			line("phase_latency_us"+series(row, `quantile="0.9"`), row.P90)
			line("phase_latency_us"+series(row, `quantile="0.99"`), row.P99)
			line("phase_latency_us_sum"+series(row, ""), row.SumUS)
			line("phase_latency_us_count"+series(row, ""), row.Count)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, err := io.WriteString(w, b.String())
	logWriteErr("/metrics", err)
}
