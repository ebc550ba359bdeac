// Command cbbench benchmarks correctbenchd end to end. It starts the
// daemon built from the checkout under test, drives one of three named
// workloads over HTTP from a single process with at most nproc
// connections, checks every output, and prints the end-to-end metrics
// that BENCHMARK.json names. With -trace 1 it then runs the same
// generated inputs in-process through the program's public API, timing
// calls into layers with spans the benchmark owns and reading the
// program's own phase totals, and prints the per-layer metrics
// instead. Nothing inside the program is changed for it.
//
// The workloads, metric definitions and bounds, and how to compare two
// commits are described in README.md. Run it from the root of a
// checkout through run.sh, which builds both binaries:
//
//	bash cmd/cbbench/run.sh --workload grid_cold --seed 42 --seconds 20 --trace 0
//	bash cmd/cbbench/run.sh --workload grade_wire --seed 7 --trace 1 -spans spans.ndjson
//	bash cmd/cbbench/run.sh -compare parent.ndjson change.ndjson
//
// The last line of standard output is the run's JSON result:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"correctbench/internal/dataset"
)

// config sizes one run. fullConfig is the benchmark; the test shrinks
// it to toy size.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // length of the measured phase
	trace    bool
	workers  int                // connections, and Workers in every spec
	problems []*dataset.Problem // the grid's problem set
	rounds   int                // grid_cold rounds: a set-up, then the grid on it
	maxOps   int                // cap on measured requests (0: until the deadline)
	setups   int                // set-ups per run; setup_s is their median
	work     string             // scratch directory for stores
	launch   launcher
}

// secondsPerGrid is about the wall time of one cold reps-1 grid on a
// 2-CPU host; grid_cold runs as many rounds as fill the measured phase,
// and at least two, so that it can report its best.
const secondsPerGrid = 11

func fullConfig(workload string, seed int64, seconds int, trace bool, work string, launch launcher) config {
	return config{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		trace:    trace,
		workers:  runtime.NumCPU(),
		problems: dataset.All(),
		rounds:   max(2, (seconds+secondsPerGrid-1)/secondsPerGrid),
		setups:   5,
		work:     work,
		launch:   launch,
	}
}

// metricDef names a metric and its unit; BENCHMARK.json carries the
// same names and units, plus direction and bound.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the daemon sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// metric is one value of the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one workload run's measurements and check failures.
type run struct {
	cfg       config
	out       io.Writer // human-readable report
	attempted int
	failures  []string
	setups    []float64 // seconds of each set-up
	e2e       map[string]float64
	layer     map[string]float64
	tr        *tracer
	host      *probe // the host's speed, sampled all through the run
}

// fail records one failed operation or output check.
func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"grid_cold":   gridCold,
	"grade_wire":  gradeWire,
	"replay_warm": replayWarm,
}

// execute runs one workload and returns its run; an error means the
// benchmark could not measure at all (no result is printed then).
func execute(cfg config, out io.Writer) (*run, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want grid_cold, grade_wire or replay_warm)", cfg.workload)
	}
	r := &run{cfg: cfg, out: out, e2e: map[string]float64{}, layer: map[string]float64{}, tr: newTracer()}
	r.logf("cbbench %s seed=%d seconds=%s trace=%v nproc=%d gomaxprocs=%d problems=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(cfg.problems))
	r.host = startProbe()
	err := wl(r)
	r.host.close()
	if err != nil {
		return nil, err
	}
	for _, m := range endToEnd {
		r.logf("  %-16s %12.4f %s", m.name, r.e2e[m.name], m.unit)
	}
	if cfg.trace {
		for _, m := range perLayer {
			r.logf("  %-30s %14.6f %s", m.name, r.layer[m.name], m.unit)
		}
	}
	for i, f := range r.failures {
		if i == 20 {
			r.logf("  ... %d more failures", len(r.failures)-i)
			break
		}
		r.logf("  FAIL %s", f)
	}
	return r, nil
}

// result builds the JSON result: end-to-end metrics, or with tracing
// the per-layer ones.
func (r *run) result() result {
	defs, vals := endToEnd, r.e2e
	if r.cfg.trace {
		defs, vals = perLayer, r.layer
	}
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    len(r.failures),
		Metrics:   map[string]metric{},
	}
	for _, m := range defs {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var (
		workload = flag.String("workload", "", "grid_cold, grade_wire or replay_warm")
		seed     = flag.Int64("seed", 42, "workload seed; every input the daemon receives is generated from it (held-out seed: 7)")
		seconds  = flag.Int("seconds", 20, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1: also replay the inputs in-process with spans and print the per-layer metrics")
		daemon   = flag.String("daemon", "", "correctbenchd binary to benchmark (run.sh builds it from the checkout)")
		root     = flag.String("root", ".", "checkout root: holds BENCHMARK.json and the scratch directory .bench_build")
		spans    = flag.String("spans", "", "with -trace 1, write the benchmark's spans to this NDJSON file at exit")
		records  = flag.String("record", "", "append {workload, seed, trace, result} to this NDJSON file, the input of -compare")
		compare  = flag.Bool("compare", false, "compare two -record files, given as arguments: parent change")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: cbbench -compare parent.ndjson change.ndjson")
			return 2
		}
		regressed, err := runCompare(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cbbench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if _, ok := workloads[*workload]; !ok || *daemon == "" || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: cbbench -daemon correctbenchd -workload grid_cold|grade_wire|replay_warm [-seed n] [-seconds n] [-trace 0|1]")
		return 2
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := fullConfig(*workload, *seed, *seconds, *trace == 1, work, daemonLauncher(*daemon, work, runtime.NumCPU()))
	r, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		return 1
	}
	if *spans != "" {
		if err := r.tr.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "cbbench:", err)
			return 1
		}
	}
	res := r.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		return 1
	}
	if *records != "" {
		if err := appendRecord(*records, record{Workload: *workload, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "cbbench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of durations, in ms.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[k]) / float64(time.Millisecond)
}
