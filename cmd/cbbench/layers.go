package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"correctbench"
	"correctbench/internal/autoeval"
	"correctbench/internal/harness"
	"correctbench/internal/obs"
	"correctbench/internal/store"
	"correctbench/internal/vstatic"
)

// perLayer are the per-layer metrics of a -trace 1 run. README.md maps
// each to the end-to-end metric and workload it should move. A layer's
// time is given as its share of the traced run's capacity (wall time ×
// workers), so that a layer a workload never reaches reads 0 calls and
// 0%, and bench.traced_wall_s gives the scale.
var perLayer = []metricDef{
	{"bench.traced_wall_s", "s"},
	{"bench.trace_overhead_pct", "%"},
	{"harness.simulate.calls", "count"},
	{"harness.simulate.share_pct", "%"},
	{"autoeval.grade.calls", "count"},
	{"autoeval.grade.share_pct", "%"},
	{"sim.elaborate.calls", "count"},
	{"sim.elaborate.share_pct", "%"},
	{"sim.compile.calls", "count"},
	{"sim.compile.share_pct", "%"},
	{"sim.run.calls", "count"},
	{"sim.run.share_pct", "%"},
	{"sim.run.in_generation_pct", "%"},
	{"vstatic.lint.calls", "count"},
	{"vstatic.lint.share_pct", "%"},
	{"store.get.calls", "count"},
	{"store.get.share_pct", "%"},
	{"store.put.calls", "count"},
	{"store.put.share_pct", "%"},
	{"service.marshal.calls", "count"},
	{"service.marshal.share_pct", "%"},
	{"service.stream_bytes", "bytes"},
	{"core.corrections", "count"},
	{"core.reboots", "count"},
	{"exec.idle_frac", "ratio"},
	{"exec.cell_max_pct", "%"},
	{"obs.trace_bytes", "bytes"},
	{"obs.spans", "count"},
	{"obs.simulate_self_pct", "%"},
}

// phaseLayers names the layer each of the program's own trace phases
// times: testbench generation (Algorithm 1 for CorrectBench cells),
// AutoEval grading, and the simulator's elaboration, compilation and
// scenario runs.
var phaseLayers = map[string]string{
	obs.PhaseSimulate:  "harness.simulate",
	obs.PhaseGrade:     "autoeval.grade",
	obs.PhaseElaborate: "sim.elaborate",
	obs.PhaseCompile:   "sim.compile",
	obs.PhaseRun:       "sim.run",
}

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one cell or request
// share Op; Parent links a call to the span that made it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, op string, parent int64) span {
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Op: op, Start: int64(time.Since(t.epoch))}
}

func (t *tracer) end(s span) {
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTotal is a layer's call count and time.
type layerTotal struct {
	calls int
	busy  time.Duration
}

// stats totals the spans by name; a span's time is its self time, its
// duration minus the time its child spans cover.
func (t *tracer) stats() map[string]layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTotal{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.calls++
		st.busy += time.Duration(s.End - s.Start - child[s.ID])
		out[s.Name] = st
	}
	return out
}

// write saves the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setLayers reports each layer's calls and share of the traced run's
// capacity, from the benchmark's spans and from the totals of the
// program's own phases, and the trace overhead: the traced run's wall
// time per operation against the end-to-end run's.
func (r *run) setLayers(wall time.Duration, ops int, e2eOpsPerSec float64, phases map[string]layerTotal) {
	capacity := wall.Seconds() * float64(r.cfg.workers)
	set := func(name string, t layerTotal) {
		r.layer[name+".calls"] = float64(t.calls)
		r.layer[name+".share_pct"] = 100 * t.busy.Seconds() / capacity
	}
	for name, t := range r.tr.stats() {
		set(name, t)
	}
	for phase, t := range phases {
		if name, ok := phaseLayers[phase]; ok {
			set(name, t)
		}
	}
	r.layer["bench.traced_wall_s"] = wall.Seconds()
	if ops > 0 && e2eOpsPerSec > 0 {
		r.layer["bench.trace_overhead_pct"] = 100 * (wall.Seconds()/float64(ops)*e2eOpsPerSec - 1)
	}
}

// setTraces reports the size and shape of the program's own traces of
// the traced jobs: NDJSON bytes and spans per job, the share of
// generation ("simulate") time that no child phase covers, and the
// share of simulator runs that happen inside generation.
func (r *run) setTraces(jobs [][]correctbench.CellTrace) error {
	var bytes, spans int
	var simDur, simChild, runDur, runInGen int64
	for _, cells := range jobs {
		for _, ct := range cells {
			line, err := json.Marshal(ct)
			if err != nil {
				return err
			}
			bytes += len(line) + 1
			spans += len(ct.Spans)
			phase := map[string]string{}
			for _, sp := range ct.Spans {
				phase[sp.ID] = sp.Phase
				if sp.Phase == obs.PhaseSimulate {
					simDur += sp.DurUS
				}
			}
			for _, sp := range ct.Spans {
				if phase[sp.Parent] == obs.PhaseSimulate {
					simChild += sp.DurUS
				}
				if sp.Phase == obs.PhaseRun {
					runDur += sp.DurUS
					if phase[sp.Parent] == obs.PhaseSimulate {
						runInGen += sp.DurUS
					}
				}
			}
		}
	}
	if n := len(jobs); n > 0 {
		r.layer["obs.trace_bytes"] = float64(bytes) / float64(n)
		r.layer["obs.spans"] = float64(spans) / float64(n)
	}
	if simDur > 0 {
		r.layer["obs.simulate_self_pct"] = 100 * float64(simDur-simChild) / float64(simDur)
	}
	if runDur > 0 {
		r.layer["sim.run.in_generation_pct"] = 100 * float64(runInGen) / float64(runDur)
	}
	return nil
}

// setOutcomes reports Algorithm 1's corrections and reboots summed over
// a grid's cells, as the daemon streamed them. They must repeat
// exactly: if they move, Algorithm 1 changed, not its speed.
func (r *run) setOutcomes(cells []correctbench.CellFinished) {
	for _, c := range cells {
		r.layer["core.corrections"] += float64(c.Outcome.Corrections)
		r.layer["core.reboots"] += float64(c.Outcome.Reboots)
	}
}

// setGridStream reports what the daemon's grid stream shows about its
// executor and wire: the share of worker time no cell used, the slowest
// cell against the job's wall time, and the stream's size.
func (r *run) setGridStream(s *stream, workers int) {
	var busy, slowest time.Duration
	for _, c := range s.cells {
		busy += c.Duration
		slowest = max(slowest, c.Duration)
	}
	r.layer["exec.idle_frac"] = 1 - busy.Seconds()/(s.wall.Seconds()*float64(workers))
	r.layer["exec.cell_max_pct"] = 100 * slowest.Seconds() / s.wall.Seconds()
	r.layer["service.stream_bytes"] = float64(s.bytes)
}

// tracedStore times every store call the in-process client makes.
type tracedStore struct {
	store.Store
	tr *tracer
}

func (s *tracedStore) Get(k store.Key) (store.Outcome, bool) {
	sp := s.tr.begin("store.get", "", 0)
	defer s.tr.end(sp)
	return s.Store.Get(k)
}

func (s *tracedStore) Put(k store.Key, o store.Outcome) error {
	sp := s.tr.begin("store.put", "", 0)
	defer s.tr.end(sp)
	return s.Store.Put(k, o)
}

// traceJobs submits specs, cfg.workers at a time, to an in-process
// client over the disk store in dir, as the daemon does for a streamed
// submit: the store is wrapped to time every Get and Put, and every
// event is marshalled as the daemon's stream marshals it. Every cell
// must end with the outcome want holds for it and, with cached, be
// replayed from the store. The layer times come from the benchmark's
// spans and from the client's own phase totals.
func traceJobs(r *run, specs []correctbench.ExperimentSpec, dir string, want map[string]correctbench.TaskOutcome, cached bool, e2eOpsPerSec float64) error {
	disk, err := store.Open(dir)
	if err != nil {
		return err
	}
	c := correctbench.NewClient(correctbench.WithStore(&tracedStore{Store: disk, tr: r.tr}))
	errs := make([]error, len(specs))
	traces := make([][]correctbench.CellTrace, len(specs))
	var bad atomic.Int64
	start := time.Now()
	parallel(len(specs), r.cfg.workers, func(i int) {
		op := fmt.Sprintf("job/%d", i)
		root := r.tr.begin("request", op, 0)
		defer r.tr.end(root)
		job, err := c.Submit(context.Background(), specs[i])
		if err != nil {
			errs[i] = err
			return
		}
		for ev := range job.Events() {
			sp := r.tr.begin("service.marshal", op, root.ID)
			_, err := correctbench.MarshalEvent(ev)
			r.tr.end(sp)
			if err != nil {
				errs[i] = err
			}
			if cf, ok := ev.(correctbench.CellFinished); ok && (cf.Cached != cached || want[cellID(cf.Method, cf.Rep, cf.Problem)] != cf.Outcome) {
				bad.Add(1)
			}
		}
		traces[i] = job.Trace()
	})
	wall := time.Since(start)
	if err := c.Close(context.Background()); err != nil {
		errs = append(errs, fmt.Errorf("close the in-process client: %w", err))
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	if n := bad.Load(); n > 0 {
		r.fail("trace replay: %d cells differ from the daemon's (outcome, or whether the store replayed them)", n)
	}
	r.logf("  trace replay: %d jobs in %.3f s", len(specs), wall.Seconds())
	phases := map[string]layerTotal{}
	for _, ps := range c.PhaseLatencies() {
		t := phases[ps.Phase]
		t.calls += int(ps.Count)
		t.busy += time.Duration(ps.SumUS) * time.Microsecond
		phases[ps.Phase] = t
	}
	r.setLayers(wall, len(specs), e2eOpsPerSec, phases)
	return r.setTraces(traces)
}

// traceGrade grades every distinct wire testbench once in-process, as
// the daemon's /v1/grade does (AutoEval, then the advisory checker
// lint), and requires the grades the daemon returned. The simulator's
// layer times come from the program's own phase collector, carried in
// each grading call's context.
func traceGrade(r *run, inputs []gradeInput, daemonGrades []string, e2eOpsPerSec float64) error {
	ev := autoeval.NewEvaluator(harness.EvaluatorSeed(r.cfg.seed))
	grades := make([]string, len(inputs))
	samples := make([][]obs.PhaseSample, len(inputs))
	errs := make([]error, len(inputs))
	start := time.Now()
	parallel(len(inputs), r.cfg.workers, func(i int) {
		in := inputs[i]
		op := fmt.Sprintf("grade/%d", in.id)
		root := r.tr.begin("request", op, 0)
		defer r.tr.end(root)
		tb := fromWire(in.problem, in.tb)
		col := obs.NewCollector(time.Now())
		sp := r.tr.begin("autoeval.grade", op, root.ID)
		g, err := ev.EvaluateContext(obs.WithCollector(context.Background(), col), tb)
		r.tr.end(sp)
		if err != nil {
			errs[i] = err
			return
		}
		if tb.CheckerSource != "" {
			sp = r.tr.begin("vstatic.lint", op, root.ID)
			_, _ = vstatic.AnalyzeSource(tb.CheckerSource, tb.CheckerTop) // advisory, as in the daemon
			r.tr.end(sp)
		}
		grades[in.id] = g.String()
		samples[i] = col.Samples()
	})
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("traced grading: %w", err)
		}
	}
	mismatched := 0
	for id, g := range daemonGrades {
		if g != "" && g != grades[id] {
			mismatched++
			r.fail("trace replay: testbench %d graded %s in-process, %s by the daemon", id, grades[id], g)
		}
	}
	r.logf("  trace replay: %d testbenches graded in %.3f s, %d differ from the daemon's", len(inputs), wall.Seconds(), mismatched)
	phases := map[string]layerTotal{}
	for _, ss := range samples {
		for _, s := range ss {
			t := phases[s.Phase]
			t.calls++
			t.busy += time.Duration(s.DurUS) * time.Microsecond
			phases[s.Phase] = t
		}
	}
	r.setLayers(wall, len(inputs), e2eOpsPerSec, phases)
	return nil
}
