package main

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"correctbench"
	"correctbench/internal/dataset"
)

// inProcess serves correctbench.NewServer over httptest instead of
// starting the daemon binary, with the admission limits off as the
// benchmark's daemon flags set them.
func inProcess(conns int) launcher {
	return func(dir string) (*target, error) {
		st, err := correctbench.OpenDiskStore(dir)
		if err != nil {
			return nil, err
		}
		c := correctbench.NewClient(correctbench.WithStore(st))
		srv := httptest.NewServer(correctbench.NewServer(c, correctbench.WithLimits(correctbench.Limits{})))
		return newTarget(srv.URL, os.Getpid(), conns, func() error {
			srv.Close()
			return c.Close(context.Background())
		}), nil
	}
}

// toyConfig is every workload at toy size: 4 problems, 50 grades, 20
// replays, one set-up, tracing on.
func toyConfig(t *testing.T, workload string) config {
	var problems []*dataset.Problem
	for _, name := range []string{"halfadd", "mux2_w4", "dff", "cnt4"} {
		p := dataset.ByName(name)
		if p == nil {
			t.Fatalf("problem %s missing", name)
		}
		problems = append(problems, p)
	}
	return config{
		workload: workload,
		seed:     42,
		seconds:  time.Minute,
		trace:    true,
		workers:  2,
		problems: problems,
		rounds:   1,
		maxOps:   map[string]int{"grade_wire": 50, "replay_warm": 20}[workload],
		setups:   1,
		work:     t.TempDir(),
		launch:   inProcess(2),
	}
}

// TestToyWorkloads runs each workload end to end at toy size and
// checks that it is correct, that the traced replay reproduces the
// daemon's outputs (a mismatch is a failure), and that every metric it
// prints is declared in BENCHMARK.json with the same unit.
func TestToyWorkloads(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := func(ms []boundedMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := declared(spec.EndToEnd), declared(spec.PerLayer)
	if len(e2e) != len(endToEnd) || len(layers) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, cbbench prints %d and %d",
			len(e2e), len(layers), len(endToEnd), len(perLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, cbbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			r, err := execute(toyConfig(t, wl.Name), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range r.failures {
				t.Errorf("failure: %s", f)
			}
			if r.attempted == 0 {
				t.Error("no operation attempted")
			}
			for _, m := range endToEnd {
				if unit, ok := e2e[m.name]; !ok || unit != m.unit {
					t.Errorf("end-to-end metric %s [%s]: BENCHMARK.json has %q", m.name, m.unit, unit)
				}
				if r.e2e[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, r.e2e[m.name])
				}
			}
			for _, m := range perLayer {
				if unit, ok := layers[m.name]; !ok || unit != m.unit {
					t.Errorf("per-layer metric %s [%s]: BENCHMARK.json has %q", m.name, m.unit, unit)
				}
			}
			res := r.result()
			if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
				t.Errorf("result: correct=%v failed=%d metrics=%d", res.Correct, res.Failed, len(res.Metrics))
			}
		})
	}
}

// TestVerdicts runs -compare's rule on seed-matched sets: a parent at
// 100 ± 2 against a change scaled by each factor, and a parent whose
// own spread is wider than the bound.
func TestVerdicts(t *testing.T) {
	m := boundedMetric{Name: "cells_per_s", Better: "higher", Bound: 0.15}
	set := func(scale float64, jitter ...float64) []seedValue {
		var out []seedValue
		for i, j := range jitter {
			out = append(out, seedValue{int64(i + 1), scale * (100 + j)})
		}
		return out
	}
	quiet := []float64{-2, 1, 0, 2, -1, 1, -2, 0, 2, -1}
	wide := []float64{-30, 25, 0, 20, -25, 15, -20, 5, 30, -10}
	for _, tc := range []struct {
		name   string
		parent []seedValue
		scale  float64
		want   string
	}{
		{"same", set(1, quiet...), 1, "same"},
		{"gain", set(1, quiet...), 1.10, "gain"},
		{"worse within the bound", set(1, quiet...), 0.90, "worse"},
		{"regression", set(1, quiet...), 0.80, "regression"},
		{"unresolved", set(1, wide...), 0.95, "unresolved"},
	} {
		change := set(tc.scale, quiet...)
		if tc.name == "unresolved" {
			change = set(tc.scale, wide...)
		}
		if got := verdictFor(m, tc.parent, change).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), the spread the benchmark's
// acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10})
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
