package correctbench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"correctbench/internal/autoeval"
	"correctbench/internal/core"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
	"correctbench/internal/llm"
	"correctbench/internal/obs"
	"correctbench/internal/validator"
)

// Int returns a pointer to v, for the explicit-value budget fields of
// ExperimentSpec and TaskSpec (e.g. MaxCorrections: correctbench.Int(0)
// disables corrections, while nil means "paper default").
func Int(v int) *int { return &v }

// resolveProfile resolves an LLM profile name ("" selects the paper's
// gpt-4o default).
func resolveProfile(name string) (*llm.Profile, error) {
	if name == "" {
		return llm.GPT4o(), nil
	}
	prof := llm.ByName(name)
	if prof == nil {
		return nil, fmt.Errorf("correctbench: unknown LLM profile %q", name)
	}
	return prof, nil
}

// Per-request work bounds. Each is at least five times the paper's own
// setting (5 reps, N_R = 20, 3 corrections, 10 reboots); past them a
// single request could ask for more work, or more memory, than one
// process can hold. A request over a bound is a spec error.
const (
	maxReps           = 100
	maxRTLGroupSize   = 100
	maxCorrectionsCap = 50
	maxRebootsCap     = 50
)

// resolveProblems resolves dataset problem names; a list may name at
// most as many problems as the dataset holds.
func resolveProblems(names []string) ([]*dataset.Problem, error) {
	if n := len(dataset.All()); len(names) > n {
		return nil, fmt.Errorf("correctbench: problems names %d problems, at most %d allowed", len(names), n)
	}
	var out []*dataset.Problem
	for _, n := range names {
		p := dataset.ByName(n)
		if p == nil {
			return nil, fmt.Errorf("correctbench: unknown problem %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

// checkNR validates an optional RTL-group-size override.
func checkNR(v *int) error {
	if v != nil && *v < 1 {
		return fmt.Errorf("correctbench: rtl_group_size must be >= 1 (the validator needs at least one RTL)")
	}
	if v != nil && *v > maxRTLGroupSize {
		return fmt.Errorf("correctbench: rtl_group_size must be <= %d, got %d", maxRTLGroupSize, *v)
	}
	return nil
}

// checkBudgets validates the optional Algorithm 1 budget overrides:
// each is nil or in [0, its cap].
func checkBudgets(maxCorrections, maxReboots *int) error {
	for _, b := range []struct {
		name string
		v    *int
		hi   int
	}{
		{"max_corrections", maxCorrections, maxCorrectionsCap},
		{"max_reboots", maxReboots, maxRebootsCap},
	} {
		if b.v != nil && *b.v < 0 {
			return fmt.Errorf("correctbench: %s must be >= 0, got %d", b.name, *b.v)
		}
		if b.v != nil && *b.v > b.hi {
			return fmt.Errorf("correctbench: %s must be <= %d, got %d", b.name, b.hi, *b.v)
		}
	}
	return nil
}

// ExperimentSpec configures a whole-dataset experiment job. It is the
// service wire format of POST /v1/experiments, so every field is
// JSON-tagged.
//
// The Algorithm 1 budgets are pointer-valued: nil means "paper
// default" (3 corrections, 10 reboots, 20 RTLs) while an explicit zero
// correction/reboot budget is honored, enabling no-correction and
// no-reboot ablations.
type ExperimentSpec struct {
	// Seed drives every random choice; equal seeds reproduce the full
	// event stream bit for bit.
	Seed int64 `json:"seed"`
	// Reps is the number of repetitions (paper: 5); minimum 1, at
	// most 100.
	Reps int `json:"reps,omitempty"`
	// LLM names an LLM profile and Criterion a validation criterion;
	// empty selects gpt-4o and 70%-wrong.
	LLM       string `json:"llm,omitempty"`
	Criterion string `json:"criterion,omitempty"`
	// Problems restricts the task set by name (default: all 156); it
	// names at most 156 problems.
	Problems []string `json:"problems,omitempty"`
	// Methods restricts the compared methods ("CorrectBench",
	// "AutoBench", "Baseline"; default: all three).
	Methods []string `json:"methods,omitempty"`
	// Workers bounds concurrent cells (0: all CPUs). Any value yields
	// the identical result and event sequence.
	Workers int `json:"workers,omitempty"`
	// MaxCorrections (I_C^max) and MaxReboots (I_R^max): nil keeps
	// the paper defaults, explicit 0 is honored (disables the
	// action); explicit values are at most 50. RTLGroupSize (N_R): nil
	// keeps the paper's 20; explicit values must be >= 1 — the
	// validator needs at least one RTL — and at most 100.
	MaxCorrections *int `json:"max_corrections,omitempty"`
	MaxReboots     *int `json:"max_reboots,omitempty"`
	RTLGroupSize   *int `json:"rtl_group_size,omitempty"`
	// NoStore opts this job out of the client's result store: no cell
	// is looked up or written back, every cell simulates. Use it to
	// force a cold run (benchmarking, store-bypass debugging) on a
	// store-backed client; it has no effect when the client has no
	// store. Results are identical either way — the store only changes
	// whether a cell is simulated or replayed.
	NoStore bool `json:"no_store,omitempty"`
	// NoTrace opts this job out of phase tracing: no per-cell span
	// tree is collected (Job.Trace returns nil, GET .../trace answers
	// 404) and the job's cells reach no /metrics latency histogram,
	// only the cells_per_sec_1m window. Tracing is operational
	// metadata exactly like CellFinished.Duration — on or off, the
	// event stream, tables and results are byte-identical — so the
	// only reason to set this is shaving the (small) collection
	// overhead, e.g. for benchmarks.
	NoTrace bool `json:"no_trace,omitempty"`
}

// resolve validates the spec and builds the harness configuration.
// All user errors (unknown LLM, criterion, problem, method; negative
// budgets) surface here, before a Job is created.
func (s ExperimentSpec) resolve() (harness.Config, error) {
	if s.Reps > maxReps {
		return harness.Config{}, fmt.Errorf("correctbench: reps must be <= %d, got %d", maxReps, s.Reps)
	}
	hcfg := harness.Config{Seed: s.Seed, Reps: s.Reps, Workers: s.Workers}
	prof, err := resolveProfile(s.LLM)
	if err != nil {
		return harness.Config{}, err
	}
	hcfg.Profile = prof
	if s.Criterion != "" {
		c, err := validator.CriterionByName(s.Criterion)
		if err != nil {
			return harness.Config{}, err
		}
		hcfg.Criterion = c
	}
	if hcfg.Problems, err = resolveProblems(s.Problems); err != nil {
		return harness.Config{}, err
	}
	for _, m := range s.Methods {
		var found bool
		for _, known := range harness.AllMethods() {
			if string(known) == m {
				hcfg.Methods = append(hcfg.Methods, known)
				found = true
				break
			}
		}
		if !found {
			return harness.Config{}, fmt.Errorf("correctbench: unknown method %q", m)
		}
	}
	if err := checkBudgets(s.MaxCorrections, s.MaxReboots); err != nil {
		return harness.Config{}, err
	}
	if err := checkNR(s.RTLGroupSize); err != nil {
		return harness.Config{}, err
	}
	hcfg.MaxCorrections = s.MaxCorrections
	hcfg.MaxReboots = s.MaxReboots
	hcfg.NR = s.RTLGroupSize
	return hcfg, nil
}

// TaskSpec configures a single CorrectBench task run through a
// Client. Budget semantics match ExperimentSpec: nil = paper
// default; explicit zero is honored for MaxCorrections/MaxReboots,
// while RTLGroupSize must be >= 1 when set. The same caps apply.
type TaskSpec struct {
	Seed           int64  `json:"seed"`
	LLM            string `json:"llm,omitempty"`
	Criterion      string `json:"criterion,omitempty"`
	MaxCorrections *int   `json:"max_corrections,omitempty"`
	MaxReboots     *int   `json:"max_reboots,omitempty"`
	RTLGroupSize   *int   `json:"rtl_group_size,omitempty"`
}

func (s TaskSpec) resolve() (core.Options, error) {
	prof, err := resolveProfile(s.LLM)
	if err != nil {
		return core.Options{}, err
	}
	opt := core.DefaultOptions(prof)
	if s.Criterion != "" {
		c, err := validator.CriterionByName(s.Criterion)
		if err != nil {
			return core.Options{}, err
		}
		opt.Criterion = c
	}
	if err := checkBudgets(s.MaxCorrections, s.MaxReboots); err != nil {
		return core.Options{}, err
	}
	if s.MaxCorrections != nil {
		opt.MaxCorrections = *s.MaxCorrections
	}
	if s.MaxReboots != nil {
		opt.MaxReboots = *s.MaxReboots
	}
	if err := checkNR(s.RTLGroupSize); err != nil {
		return core.Options{}, err
	}
	if s.RTLGroupSize != nil {
		opt.NR = *s.RTLGroupSize
	}
	return opt, nil
}

// Retention bounds: a Client is designed to live for the whole
// process (correctbenchd keeps one per server), so both caches are
// capped rather than unbounded.
const (
	// maxRetainedJobs bounds the jobs kept for Job()/Jobs() lookups:
	// once exceeded, the oldest finished jobs (and their event
	// histories) are evicted. Running jobs are never evicted.
	maxRetainedJobs = 64
	// maxRetainedEvaluators bounds the per-seed fixture caches; the
	// oldest evaluator is dropped when a new seed would exceed the
	// cap (fixtures are deterministic, so eviction only costs a
	// rebuild). Jobs hold their own reference, so eviction never
	// affects a running experiment.
	maxRetainedEvaluators = 8
)

// Client is the job-oriented entry point to CorrectBench. It owns the
// caches shared across jobs — the dataset, per-seed AutoEval
// evaluators holding elaborated goldens, golden testbenches and
// mutant fixtures, and optionally a content-addressed result store
// (WithStore) that replays finished cells instead of re-simulating
// them — so repeated jobs against the same seed never rebuild
// fixtures and repeated specs never re-simulate cells. The fixture
// caches are bounded (see maxRetainedJobs, maxRetainedEvaluators), so
// a long-lived Client does not grow without limit. A Client is safe
// for concurrent use; the zero value is not usable, construct with
// NewClient.
type Client struct {
	store Store // nil: no result store

	// cellHook, set only by tests, is handed to every job this client
	// submits (see Job.cellHook).
	cellHook func(job string, index int, finished bool)

	// obs holds every traced job's phase latencies and every job's
	// completion-rate window; GET /metrics reads it.
	obs *obs.Observer

	mu        sync.Mutex
	evals     map[int64]*autoeval.Evaluator
	evalOrder []int64 // evaluator seeds in creation order
	jobs      map[string]*Job
	order     []string // job IDs in submission order
	seq       int
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithStore attaches a result store (NewMemoryStore, OpenDiskStore)
// to the client. Every submitted job then consults the store before
// scheduling a cell and persists each finished cell, making identical
// or overlapping specs O(lookup) instead of O(simulation) and
// interrupted experiments resumable by resubmitting the same spec.
// Individual jobs opt out with ExperimentSpec.NoStore. The store may
// be shared across concurrent jobs; the client takes ownership —
// Close closes it.
func WithStore(s Store) ClientOption {
	return func(c *Client) { c.store = s }
}

// NewClient returns an empty client.
func NewClient(opts ...ClientOption) *Client {
	c := &Client{
		evals: map[int64]*autoeval.Evaluator{},
		jobs:  map[string]*Job{},
		obs:   obs.NewObserver(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// StoreStats reports the result store's live counters; ok is false
// when the client was built without WithStore.
func (c *Client) StoreStats() (stats StoreStats, ok bool) {
	if c.store == nil {
		return StoreStats{}, false
	}
	return c.store.Stats(), true
}

// Close shuts the client down for process exit: every in-flight job
// is cancelled, waited for (so final result-store write-backs land),
// and then the store — when one is attached — is flushed and closed.
// ctx bounds the wait; on expiry the store is still closed (remaining
// write-backs fail softly and are counted) and ctx's error returned.
// correctbenchd calls this on SIGTERM so a rolling restart never
// loses a completed cell. Submitting after Close yields jobs whose
// cells all miss and fail to persist; don't.
func (c *Client) Close(ctx context.Context) error {
	jobs := c.Jobs()
	for _, j := range jobs {
		j.Cancel()
	}
	var waitErr error
drain:
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			waitErr = ctx.Err()
			break drain
		}
	}
	var closeErr error
	if c.store != nil {
		closeErr = c.store.Close()
	}
	if waitErr != nil {
		return waitErr
	}
	return closeErr
}

// evaluator returns the shared evaluator for an evaluator seed,
// creating it on first use and evicting the oldest cached seed when
// the cap is exceeded.
func (c *Client) evaluator(seed int64) *autoeval.Evaluator {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.evals[seed]
	if !ok {
		e = autoeval.NewEvaluator(seed)
		c.evals[seed] = e
		c.evalOrder = append(c.evalOrder, seed)
		if len(c.evalOrder) > maxRetainedEvaluators {
			delete(c.evals, c.evalOrder[0])
			c.evalOrder = c.evalOrder[1:]
		}
	}
	return e
}

// pruneJobsLocked evicts the oldest finished jobs beyond the
// retention cap. Callers hold c.mu.
func (c *Client) pruneJobsLocked() {
	if len(c.order) <= maxRetainedJobs {
		return
	}
	kept := c.order[:0]
	excess := len(c.order) - maxRetainedJobs
	for _, id := range c.order {
		if excess > 0 && c.jobs[id].finished() {
			delete(c.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	c.order = kept
}

// Submit validates the spec and starts an experiment job. The job's
// lifetime is bound to ctx: cancelling it (an HTTP client
// disconnecting, a CLI receiving SIGINT) stops the workers within one
// simulation step batch, exactly like Job.Cancel. Spec errors
// (unknown LLM/criterion/problem/method, invalid budgets) and an
// already-cancelled ctx are reported synchronously; after a
// successful return, all failures flow through the event stream and
// Wait.
func (c *Client) Submit(ctx context.Context, spec ExperimentSpec) (*Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hcfg, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	hcfg.Evaluator = c.evaluator(harness.EvaluatorSeed(spec.Seed))
	if !spec.NoStore {
		hcfg.Store = c.store
	}
	// Normalize the grid now so JobStarted and Snapshot report the
	// exact totals the harness will run.
	hcfg.Normalize()

	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("exp-%d", c.seq)
	c.mu.Unlock()

	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		id:           id,
		spec:         spec,
		cancel:       cancel,
		done:         make(chan struct{}),
		update:       make(chan struct{}),
		total:        len(hcfg.Methods) * hcfg.Reps * len(hcfg.Problems),
		grades:       map[string]map[string]int{},
		tables:       map[string]string{},
		storeEnabled: hcfg.Store != nil,
		cellHook:     c.cellHook,
		observer:     c.obs,
	}
	if !spec.NoTrace {
		// Tracing is on by default: the job collects a span tree per
		// cell, whose spans feed the client's latency histograms. Both
		// are off-wire operational metadata, so traced and untraced
		// jobs publish byte-identical event streams.
		j.trace = &obs.JobTrace{Observer: c.obs}
		hcfg.Trace = j.trace
	}
	c.mu.Lock()
	c.jobs[id] = j
	c.order = append(c.order, id)
	c.pruneJobsLocked()
	c.mu.Unlock()

	go j.run(jctx, hcfg)
	return j, nil
}

// Job returns a submitted job by ID, or nil when unknown.
func (c *Client) Job(id string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// Jobs returns every submitted job in submission order.
func (c *Client) Jobs() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Job, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.jobs[id])
	}
	return out
}

// GenerateTestbench runs the full CorrectBench workflow (Algorithm 1)
// on one named problem, with cancellation.
func (c *Client) GenerateTestbench(ctx context.Context, problem string, spec TaskSpec) (*TaskResult, error) {
	p := dataset.ByName(problem)
	if p == nil {
		return nil, fmt.Errorf("correctbench: unknown problem %q", problem)
	}
	return c.GenerateTestbenchFor(ctx, p, spec)
}

// GenerateTestbenchFor is GenerateTestbench for an explicit problem
// (including NewProblem-built ones).
func (c *Client) GenerateTestbenchFor(ctx context.Context, p *Problem, spec TaskSpec) (*TaskResult, error) {
	opt, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	res, err := core.RunContext(ctx, p, opt, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		return nil, err
	}
	return &TaskResult{
		Testbench:   res.Testbench,
		Validated:   res.Trace.FinalValidated,
		Corrections: res.Trace.Corrections,
		Reboots:     res.Trace.Reboots,
		TokensIn:    res.Trace.Tokens.In,
		TokensOut:   res.Trace.Tokens.Out,
	}, nil
}

// Grade evaluates a testbench with AutoEval (Table II). The seed
// fixes the mutant fixtures; repeated grades against the same seed
// share the client's cached fixtures.
func (c *Client) Grade(ctx context.Context, tb *Testbench, seed int64) (GradeLevel, error) {
	return c.evaluator(seed).EvaluateContext(ctx, tb)
}

// CriterionAccuracyRow re-exports one Fig. 6(a) result row.
type CriterionAccuracyRow = harness.CriterionAccuracy

// CriterionPipelineRow re-exports one Fig. 6(b) result row.
type CriterionPipelineRow = harness.CriterionPipelineResult

// CriteriaAccuracySpec configures the Fig. 6(a) validation-accuracy
// study run through a Client.
type CriteriaAccuracySpec struct {
	Seed int64 `json:"seed"`
	// PerTask is the corpus size per problem (paper: 10).
	PerTask int    `json:"per_task,omitempty"`
	LLM     string `json:"llm,omitempty"`
	// RTLGroupSize is N_R (nil: paper's 20).
	RTLGroupSize *int      `json:"rtl_group_size,omitempty"`
	Problems     []string  `json:"problems,omitempty"`
	Workers      int       `json:"workers,omitempty"`
	Progress     io.Writer `json:"-"`
}

// CriteriaAccuracy runs the Fig. 6(a) study with cancellation.
func (c *Client) CriteriaAccuracy(ctx context.Context, spec CriteriaAccuracySpec) ([]CriterionAccuracyRow, error) {
	cfg := harness.CriteriaAccuracyConfig{
		PerTask: spec.PerTask, Seed: spec.Seed, Workers: spec.Workers, Progress: spec.Progress,
	}
	prof, err := resolveProfile(spec.LLM)
	if err != nil {
		return nil, err
	}
	cfg.Profile = prof
	if err := checkNR(spec.RTLGroupSize); err != nil {
		return nil, err
	}
	if spec.RTLGroupSize != nil {
		cfg.NR = *spec.RTLGroupSize
	}
	if cfg.Problems, err = resolveProblems(spec.Problems); err != nil {
		return nil, err
	}
	return harness.CriteriaAccuracyContext(ctx, cfg)
}

// CriteriaPipeline runs the Fig. 6(b) study (the whole framework
// under each validation criterion) with cancellation. The spec's
// Criterion and Methods fields are ignored — the study fixes both.
func (c *Client) CriteriaPipeline(ctx context.Context, spec ExperimentSpec, progress io.Writer) ([]CriterionPipelineRow, error) {
	spec.Criterion = ""
	spec.Methods = nil
	hcfg, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	hcfg.Normalize()
	if progress != nil {
		hcfg.OnGroup = func(method harness.Method, rep int) {
			fmt.Fprintf(progress, "%s rep %d/%d done (%d tasks)\n", method, rep+1, hcfg.Reps, len(hcfg.Problems))
		}
	}
	hcfg.Evaluator = c.evaluator(harness.EvaluatorSeed(spec.Seed))
	// The study runs one experiment per criterion; the criterion is a
	// cell-key component, so sharing the store across rows is safe and
	// a rerun of the study is fully warm.
	if !spec.NoStore {
		hcfg.Store = c.store
	}
	return harness.CriteriaPipelineContext(ctx, hcfg)
}
