package correctbench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// scrapeMetrics fetches /metrics and parses its series lines into a
// "series -> value" map, skipping the # HELP/# TYPE exposition
// headers (validated separately by TestMetricsExposition).
func scrapeMetrics(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("metrics line %q is not \"series value\"", line)
		}
		out[key] = val
	}
	return out
}

func metricInt(t *testing.T, m map[string]string, key string) int {
	t.Helper()
	v, ok := m[key]
	if !ok {
		t.Fatalf("metric %q missing from %v", key, m)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("metric %s = %q, not an integer", key, v)
	}
	return n
}

func TestMetricsEndpoint(t *testing.T) {
	c := NewClient(WithStore(NewMemoryStore(0)))
	// Burst 1 with a negligible refill: the first submit takes the only
	// token, the second is refused — that's the queue_refusals gauge.
	ts := httptest.NewServer(NewServer(c, WithLimits(Limits{
		RatePerSec: 0.0001, Burst: 1, MaxBodyBytes: defaultMaxBodyBytes,
	})))
	t.Cleanup(ts.Close)

	spec := ExperimentSpec{Seed: 5, Reps: 1, Problems: []string{"halfadd"}}
	resp := postJSON(t, ts.URL+"/v1/experiments", spec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s", resp.Status)
	}
	if _, err := c.Jobs()[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	refused := postJSON(t, ts.URL+"/v1/experiments", spec)
	refused.Body.Close()
	if refused.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %s, want 429", refused.Status)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := metricInt(t, m, "cells_done"); got != 3 {
		t.Errorf("cells_done = %d, want 3 (one rep, one problem, three methods)", got)
	}
	if got := metricInt(t, m, "jobs_total"); got != 1 {
		t.Errorf("jobs_total = %d, want 1", got)
	}
	if got := metricInt(t, m, "jobs_active"); got != 0 {
		t.Errorf("jobs_active = %d, want 0 after Wait", got)
	}
	if got := metricInt(t, m, "queue_refusals"); got != 1 {
		t.Errorf("queue_refusals = %d, want 1", got)
	}
	if got := metricInt(t, m, "jobs_degraded"); got != 0 {
		t.Errorf("jobs_degraded = %d, want 0", got)
	}
	// Store-backed client: hit/miss gauges must be present, and a cold
	// 3-cell run is 3 misses.
	if got := metricInt(t, m, "store_misses"); got != 3 {
		t.Errorf("store_misses = %d, want 3", got)
	}
	if _, ok := m["store_hit_ratio"]; !ok {
		t.Error("store_hit_ratio missing on a store-backed client")
	}
	for _, key := range []string{"uptime_seconds", "cells_per_sec"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metric %q missing", key)
		}
	}
	// Storeless client: no store gauges.
	bare := httptest.NewServer(NewServer(NewClient()))
	t.Cleanup(bare.Close)
	if _, ok := scrapeMetrics(t, bare.URL)["store_hits"]; ok {
		t.Error("store_hits present without a store")
	}
}
