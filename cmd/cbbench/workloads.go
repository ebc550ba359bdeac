package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"correctbench"
	"correctbench/internal/autoeval"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
)

// setUp runs prepare for set-up i on a fresh service and times it
// from the launch to a warm, ready service, normalized by the host's
// speed meanwhile; setup_s is the median of a run's set-ups.
func (r *run) setUp(i int, prepare func(i int) (*target, error)) (*target, error) {
	start := time.Now()
	t, err := prepare(i)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	end := time.Now()
	raw := end.Sub(start).Seconds()
	factor, steal := r.host.factor(start, end)
	r.setups = append(r.setups, raw/factor)
	r.e2e["setup_s"] = median(r.setups)
	r.logf("  set-up %d: %.4f s raw; host factor %.3f, steal %.1f%%", i, raw, factor, 100*steal)
	return t, nil
}

// setup runs cfg.setups set-ups one after another and keeps the last
// service, stopping the others.
func (r *run) setup(prepare func(i int) (*target, error)) (*target, error) {
	for i := 0; ; i++ {
		t, err := r.setUp(i, prepare)
		if err != nil || i == r.cfg.setups-1 {
			return t, err
		}
		if err := t.stop(); err != nil {
			return nil, fmt.Errorf("stop after set-up: %w", err)
		}
	}
}

func (r *run) storeDir(i int) string {
	return filepath.Join(r.cfg.work, "store-"+strconv.Itoa(i))
}

// launchWarm is the set-up of grid_cold and grade_wire: a daemon on an
// empty store, warmed by grading every warm-up input once over the
// run's connections, which builds each problem's AutoEval fixtures.
func (r *run) launchWarm(inputs []gradeInput) func(i int) (*target, error) {
	return func(i int) (*target, error) {
		t, err := r.cfg.launch(r.storeDir(i))
		if err != nil {
			return nil, err
		}
		errs := make([]error, len(inputs))
		parallel(len(inputs), r.cfg.workers, func(i int) {
			_, errs[i] = postGrade(t, inputs[i].body)
		})
		if err := errors.Join(errs...); err != nil {
			_ = t.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return t, nil
	}
}

// segment is the length of one closed-loop segment, each normalized by
// the host's speed during it.
const segment = 4 * time.Second

// sample is one request of a closed loop.
type sample struct {
	op    int
	lat   time.Duration
	cells int // cells the response delivered
	err   error
}

// closedLoop runs do from conns goroutines, each sending its next
// request only after the previous response was read, until d has
// passed or next reaches maxOps. It returns the samples and the wall
// time from the first send to the last response.
func closedLoop(conns int, d time.Duration, maxOps int, next *atomic.Int64, do func(op int) (cells int, err error)) ([]sample, time.Duration) {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < d {
				op := int(next.Add(1) - 1)
				if maxOps > 0 && op >= maxOps {
					break
				}
				t0 := time.Now()
				cells, err := do(op)
				mine = append(mine, sample{op: op, lat: time.Since(t0), cells: cells, err: err})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// loop runs a workload's measured phase: a closed loop cut into
// segments, each normalized by the host's speed during it. cells_per_s
// is the median of the segments' rates, so a stall of the shared host
// in one segment does not move it; the latency percentiles are taken
// over every successful request of the run, each divided by its
// segment's host factor, so that many samples lie beyond p99. It
// returns the requests sent and their raw rate.
func (r *run) loop(do func(op int) (cells int, err error)) (sent int, opsPerSec float64) {
	n := max(1, int(r.cfg.seconds/segment))
	var (
		next  atomic.Int64
		rates []float64
		norm  []time.Duration // latencies over their segment's host factor
		wall  time.Duration
	)
	for k := 0; k < n && (r.cfg.maxOps == 0 || int(next.Load()) < r.cfg.maxOps); k++ {
		t0 := time.Now()
		samples, d := closedLoop(r.cfg.workers, r.cfg.seconds/time.Duration(n), r.cfg.maxOps, &next, do)
		factor, steal := r.host.factor(t0, t0.Add(d))
		var lats []time.Duration
		cells := 0
		for _, s := range samples {
			if s.err != nil {
				r.fail("request %d: %v", s.op, s.err)
				continue
			}
			lats = append(lats, s.lat)
			cells += s.cells
		}
		sent += len(samples)
		wall += d
		if len(lats) == 0 {
			continue
		}
		rate := float64(cells) / d.Seconds()
		rates = append(rates, rate*factor)
		for _, l := range lats {
			norm = append(norm, time.Duration(float64(l)/factor))
		}
		r.logf("  segment %d: %d requests, %d ok, %.1f cells/s, p50 %.3f ms, p99 %.3f ms raw; host factor %.3f, steal %.1f%%",
			k, len(samples), len(lats), rate, percentile(lats, 0.50), percentile(lats, 0.99), factor, 100*steal)
	}
	r.attempted += sent
	r.e2e["cells_per_s"] = median(rates)
	r.e2e["latency_p50_ms"] = percentile(norm, 0.50)
	r.e2e["latency_p99_ms"] = percentile(norm, 0.99)
	r.logf("  latency: %d requests", len(norm))
	return sent, float64(sent) / wall.Seconds()
}

func (r *run) peakRSS(t *target) error {
	mb, err := peakRSSMB(t.pid)
	r.e2e["rss_peak_mb"] = mb
	return err
}

// checkStream verifies that a job streamed every cell of spec's grid,
// in canonical order (method-major, then rep, then problem), and
// finished ok. It returns one message per bad cell plus one for a bad
// job end.
func checkStream(s *stream, spec correctbench.ExperimentSpec) []string {
	methods, problems, reps := specGrid(spec)
	total := len(methods) * reps * len(problems)
	var bad []string
	for i, c := range s.cells {
		if i >= total {
			bad = append(bad, fmt.Sprintf("job %s: extra cell %d", s.jobID, c.Index))
			continue
		}
		m, rep, p := methods[i/(reps*len(problems))], i/len(problems)%reps, problems[i%len(problems)]
		if c.Index != i || c.Method != m || c.Rep != rep || c.Problem != p {
			bad = append(bad, fmt.Sprintf("job %s: cell %d arrived as %d %s/%d/%s, want %s/%d/%s",
				s.jobID, i, c.Index, c.Method, c.Rep, c.Problem, m, rep, p))
		}
	}
	for i := len(s.cells); i < total; i++ {
		bad = append(bad, fmt.Sprintf("job %s: cell %d missing", s.jobID, i))
	}
	return append(bad, checkEnd(s)...)
}

// checkEnd verifies that a job ended ok with its Table I.
func checkEnd(s *stream) []string {
	switch {
	case !s.done || s.err != "":
		return []string{fmt.Sprintf("job %s: ended without an ok job_done (%q)", s.jobID, s.err)}
	case s.tables["table1"] == "":
		return []string{fmt.Sprintf("job %s: no table1", s.jobID)}
	}
	return nil
}

// checkReplay verifies a replayed job against its expected cell lines
// (see expectedLines) and its end.
func checkReplay(s *stream, expect [][]byte) []string {
	bad := append(append([]string(nil), s.bad...), checkEnd(s)...)
	if s.ncells != len(expect) {
		bad = append(bad, fmt.Sprintf("job %s: %d cells, want %d", s.jobID, s.ncells, len(expect)))
	}
	return bad
}

// expectedLines renders the cell lines a fully warm job of spec must
// stream, byte for byte: every cell in canonical order, replayed from
// the store (duration 0) with the outcome the fill computed.
func expectedLines(spec correctbench.ExperimentSpec, want map[string]correctbench.TaskOutcome) ([][]byte, error) {
	methods, problems, reps := specGrid(spec)
	var out [][]byte
	for _, m := range methods {
		for rep := 0; rep < reps; rep++ {
			for _, p := range problems {
				o, ok := want[cellID(m, rep, p)]
				if !ok {
					return nil, fmt.Errorf("cell %s was not filled", cellID(m, rep, p))
				}
				line, err := correctbench.MarshalEvent(correctbench.CellFinished{Index: len(out), Method: m, Rep: rep, Problem: p, Outcome: o})
				if err != nil {
					return nil, err
				}
				out = append(out, append(line, '\n'))
			}
		}
	}
	return out, nil
}

// cellID names a cell of a grid: method/rep/problem.
func cellID(method string, rep int, problem string) string {
	return method + "/" + strconv.Itoa(rep) + "/" + problem
}

// outcomes maps each cell of a stream to its outcome, by cellID.
func outcomes(cells []correctbench.CellFinished) map[string]correctbench.TaskOutcome {
	out := make(map[string]correctbench.TaskOutcome, len(cells))
	for _, c := range cells {
		out[cellID(c.Method, c.Rep, c.Problem)] = c.Outcome
	}
	return out
}

// outcomesDigest hashes a stream's cell outcomes in cell-ID order, so
// it does not depend on the order the problems were listed in.
func outcomesDigest(cells []correctbench.CellFinished) string {
	lines := make([]string, len(cells))
	for i, c := range cells {
		lines[i] = fmt.Sprintf("%s %+v\n", cellID(c.Method, c.Rep, c.Problem), c.Outcome)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

//go:embed references.json
var referencesJSON []byte

// references pins the outputs of full-size runs (all 156 problems). A
// seed without a pin gets the completeness, order and consistency
// checks only.
type references struct {
	// Grid pins the Table I and cell outcomes of the grid that grid_cold
	// computes and replay_warm fills its store with, which do not depend
	// on the workload seed.
	Grid *gridDigests `json:"grid"`
	// Grades pins grade_wire's grades of all its testbenches, by
	// workload seed.
	Grades map[string]struct {
		Digest    string         `json:"grades_sha256"`
		Histogram map[string]int `json:"histogram"`
	} `json:"grade_wire"`
}

type gridDigests struct {
	Table1   string `json:"table1_sha256"`
	Outcomes string `json:"outcomes_sha256"`
}

func loadReferences() (references, error) {
	var refs references
	err := json.Unmarshal(referencesJSON, &refs)
	return refs, err
}

func (r *run) fullSize() bool { return len(r.cfg.problems) == len(dataset.All()) }

// checkGridDigests prints a complete grid stream's digests and compares
// them with pin, when there is one.
func (r *run) checkGridDigests(what string, s *stream, pin *gridDigests) {
	got := gridDigests{Table1: digest([]byte(s.tables["table1"])), Outcomes: outcomesDigest(s.cells)}
	r.logf("  %s: table1_sha256=%s outcomes_sha256=%s", what, got.Table1, got.Outcomes)
	if pin != nil && r.fullSize() && got != *pin {
		r.fail("%s digests %+v, pinned %+v", what, got, *pin)
	}
}

// paperEval2 is Table I's all-task Eval2 pass ratio per method as the
// paper reports it (GPT-4o).
var paperEval2 = map[string]float64{"CorrectBench": 70.13, "AutoBench": 52.18, "Baseline": 33.33}

// paperAccuracy prints the grid's all-task Eval2 ratio per method next
// to the paper's. It is informational: the simulated LLM makes the
// difference a calibration gap, not an error bound.
func (r *run) paperAccuracy(cells []correctbench.CellFinished) {
	pass, n := map[string]int{}, map[string]int{}
	for _, c := range cells {
		n[c.Method]++
		if c.Outcome.Grade == autoeval.GradeEval2 {
			pass[c.Method]++
		}
	}
	line := "  paper accuracy (all-task Eval2 pass ratio, informational):"
	for _, m := range harness.AllMethods() {
		if n[string(m)] == 0 {
			continue
		}
		got := 100 * float64(pass[string(m)]) / float64(n[string(m)])
		line += fmt.Sprintf(" %s %.2f%% (paper %.2f%%, gap %+.2f pp);", m, got, paperEval2[string(m)], got-paperEval2[string(m)])
	}
	r.logf("%s", line)
}

// gridCold: rounds of one streamed submit of the whole grid, each on a
// freshly set-up daemon with an empty store, so every cell is simulated
// and written. This is Table I traffic. Each metric is the median over
// the rounds, each normalized by the host's speed during its job.
func gridCold(r *run) error {
	cfg := r.cfg
	warm, err := warmInputs(cfg, gridSeed)
	if err != nil {
		return err
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	spec := gridSpec(cfg)
	var (
		rates, p50, p99, rss []float64
		s                    *stream
	)
	for i := 0; i < cfg.rounds; i++ {
		t, err := r.setUp(i, r.launchWarm(warm))
		if err != nil {
			return err
		}
		t0 := time.Now()
		s, err = r.gridJob(t, spec, refs.Grid)
		if err != nil {
			_ = t.stop()
			return err
		}
		factor, steal := r.host.factor(t0, t0.Add(s.wall))
		rates = append(rates, float64(len(s.cells))/s.wall.Seconds()*factor)
		// The one request streams every cell: the latency samples are the
		// arrival times of the cell lines, so p50 is the time to half the
		// grid and p99 its straggler tail.
		p50 = append(p50, percentile(s.at, 0.50)/factor)
		p99 = append(p99, percentile(s.at, 0.99)/factor)
		r.logf("  round %d: %.3f cells/s, p50 %.1f ms, p99 %.1f ms raw; host factor %.3f, steal %.1f%%",
			i, float64(len(s.cells))/s.wall.Seconds(), percentile(s.at, 0.50), percentile(s.at, 0.99), factor, 100*steal)
		mb, err := peakRSSMB(t.pid)
		if err != nil {
			_ = t.stop()
			return err
		}
		rss = append(rss, mb)
		if err := t.stop(); err != nil {
			return err
		}
	}
	r.e2e["cells_per_s"] = median(rates)
	r.e2e["latency_p50_ms"] = median(p50)
	r.e2e["latency_p99_ms"] = median(p99)
	r.e2e["rss_peak_mb"] = median(rss)
	r.paperAccuracy(s.cells)
	if !cfg.trace {
		return nil
	}
	r.setGridStream(s, spec.Workers)
	r.setOutcomes(s.cells)
	// The traced run computes the last round's grid again, in-process on
	// an empty store.
	return traceJobs(r, []correctbench.ExperimentSpec{spec}, filepath.Join(cfg.work, "trace-store"),
		outcomes(s.cells), false, 1/s.wall.Seconds())
}

// gridJob streams one cold grid job on t and checks it: every cell in
// canonical order, an ok end with Table I, and the pinned digests.
func (r *run) gridJob(t *target, spec correctbench.ExperimentSpec, pin *gridDigests) (*stream, error) {
	s, err := postStream(t, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("grid job: %w", err)
	}
	methods, problems, reps := specGrid(spec)
	r.attempted += len(methods) * reps * len(problems)
	for _, msg := range checkStream(s, spec) {
		r.fail("%s", msg)
	}
	r.checkGridDigests(fmt.Sprintf("grid seed=%d", spec.Seed), s, pin)
	r.logf("  grid: %d cells in %.3f s", len(s.cells), s.wall.Seconds())
	return s, nil
}

// gradeWire: a closed loop of /v1/grade requests cycling over the
// AutoBench and Baseline testbenches of every problem in wire form.
func gradeWire(r *run) error {
	cfg := r.cfg
	inputs, err := wireInputs(cfg)
	if err != nil {
		return err
	}
	warm, err := warmInputs(cfg, cfg.seed)
	if err != nil {
		return err
	}
	t, err := r.setup(r.launchWarm(warm))
	if err != nil {
		return err
	}
	defer t.stop()
	var mu sync.Mutex
	grades := make([]string, len(inputs)) // by gradeInput.id: the first grade seen
	_, opsPerSec := r.loop(func(op int) (int, error) {
		in := inputs[op%len(inputs)]
		g, err := postGrade(t, in.body)
		if err != nil {
			return 0, err
		}
		mu.Lock()
		defer mu.Unlock()
		if prev := grades[in.id]; prev != "" && prev != g {
			return 0, fmt.Errorf("testbench %d (%s) graded %s, earlier %s", in.id, in.problem.Name, g, prev)
		}
		grades[in.id] = g
		return 1, nil
	})
	if err := r.checkGrades(grades); err != nil {
		return err
	}
	if err := r.peakRSS(t); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	if err := t.stop(); err != nil {
		return err
	}
	return traceGrade(r, inputs, grades, opsPerSec)
}

// checkGrades compares the grades of all distinct testbenches with the
// pinned ones, once the loop has graded each of them.
func (r *run) checkGrades(grades []string) error {
	hist := map[string]int{}
	for _, g := range grades {
		if g == "" {
			r.logf("  grades: not every testbench was graded; no digest")
			return nil
		}
		hist[g]++
	}
	all, err := json.Marshal(grades)
	if err != nil {
		return err
	}
	sum := digest(all)
	r.logf("  grades: histogram %v grades_sha256=%s", hist, sum)
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	if pin, ok := refs.Grades[strconv.FormatInt(r.cfg.seed, 10)]; ok && r.fullSize() && pin.Digest != sum {
		r.fail("grades digest %s, pinned %s (histogram %v, pinned %v)", sum, pin.Digest, hist, pin.Histogram)
	}
	return nil
}

// traceReplays is how many whole-grid replays the traced run of
// replay_warm submits in-process.
const traceReplays = 200

// replayWarm: a closed loop of streamed submits of the Table I grid,
// every cell of which is already in the store.
func replayWarm(r *run) error {
	cfg := r.cfg
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	spec := gridSpec(cfg)
	dir := r.storeDir(0)
	// Before the set-ups, one cold run of the grid fills the store, on a
	// daemon of its own. That job is grid_cold's measured work, so it is
	// not timed here.
	f, err := r.fillStore(dir, spec)
	if err != nil {
		return err
	}
	r.checkGridDigests(fmt.Sprintf("fill seed=%d", spec.Seed), f, refs.Grid)
	want := outcomes(f.cells)
	lines, err := expectedLines(spec, want)
	if err != nil {
		return err
	}
	// A set-up restarts the daemon on the filled store, which loads it,
	// and replays the whole grid once. Replays only read the store, so
	// every set-up finds it as the fill left it.
	t, err := r.setup(func(int) (*target, error) {
		t, err := cfg.launch(dir)
		if err != nil {
			return nil, err
		}
		s, err := postStream(t, spec, lines)
		if err == nil {
			if bad := checkReplay(s, lines); len(bad) > 0 {
				err = errors.New(bad[0])
			}
		}
		if err != nil {
			_ = t.stop()
			return nil, fmt.Errorf("first replay: %w", err)
		}
		return t, nil
	})
	if err != nil {
		return err
	}
	defer t.stop()
	var before correctbench.StoreStats
	if err := getJSON(t, "/v1/store/stats", &before); err != nil {
		return err
	}
	var streamed atomic.Int64
	sent, opsPerSec := r.loop(func(op int) (int, error) {
		s, err := postStream(t, spec, lines)
		if err != nil {
			return 0, err
		}
		if bad := checkReplay(s, lines); len(bad) > 0 {
			return 0, fmt.Errorf("replay %d: %s (and %d more)", op, bad[0], len(bad)-1)
		}
		streamed.Add(int64(s.bytes))
		return s.ncells, nil
	})
	var after correctbench.StoreStats
	if err := getJSON(t, "/v1/store/stats", &after); err != nil {
		return err
	}
	if after.Misses != before.Misses {
		r.fail("store: %d misses during the replay loop, want 0", after.Misses-before.Misses)
	}
	if err := r.peakRSS(t); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	if sent > 0 {
		r.layer["service.stream_bytes"] = float64(streamed.Load()) / float64(sent)
	}
	r.setOutcomes(f.cells)
	if err := t.stop(); err != nil {
		return err
	}
	specs := make([]correctbench.ExperimentSpec, traceReplays)
	for i := range specs {
		specs[i] = spec
	}
	return traceJobs(r, specs, dir, want, true, opsPerSec)
}

// fillStore cold-fills the store in dir with spec's grid on a daemon
// of its own, stopped again once the job is done.
func (r *run) fillStore(dir string, spec correctbench.ExperimentSpec) (*stream, error) {
	t, err := r.cfg.launch(dir)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	s, err := postStream(t, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("fill job: %w", err)
	}
	if bad := checkStream(s, spec); len(bad) > 0 {
		return nil, fmt.Errorf("fill job: %s (and %d more)", bad[0], len(bad)-1)
	}
	return s, t.stop()
}
