// Package harness runs the paper's experiments end to end: the three
// generation methods over the 156-task dataset with repetitions
// (Table I), gain attribution for the validator and corrector
// (Table III), the validation-criteria studies (Fig. 6a/6b) and the
// cross-LLM comparison (Fig. 7). It also formats the resulting tables
// and figures as text.
package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"correctbench/internal/autobench"
	"correctbench/internal/autoeval"
	"correctbench/internal/core"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/obs"
	"correctbench/internal/rng"
	"correctbench/internal/store"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
)

// Method names one of the compared generation methods.
type Method string

// The three methods of Table I.
const (
	MethodCorrectBench Method = "CorrectBench"
	MethodAutoBench    Method = "AutoBench"
	MethodBaseline     Method = "Baseline"
)

// AllMethods returns the methods in paper column order.
func AllMethods() []Method { return []Method{MethodCorrectBench, MethodAutoBench, MethodBaseline} }

// TaskOutcome is the result of one task under one method.
type TaskOutcome struct {
	Problem string
	Kind    dataset.Kind
	Grade   autoeval.Grade

	// CorrectBench-only trace data.
	ValidatorIntervened bool
	CorrectorShaped     bool
	FinalValidated      bool
	Corrections         int
	Reboots             int

	TokensIn, TokensOut int
}

// Config configures an experiment.
type Config struct {
	Profile   *llm.Profile
	Criterion validator.Criterion
	Reps      int
	Seed      int64
	Problems  []*dataset.Problem
	Methods   []Method
	// Workers bounds the number of (method, rep, problem) cells
	// executed concurrently. 0 (the default) uses GOMAXPROCS; 1 runs
	// strictly sequentially. Any value produces identical Results:
	// every cell draws from its own hierarchically derived random
	// stream (see internal/rng), so scheduling order cannot leak into
	// outcomes.
	Workers int

	// OnCell, when non-nil, receives every finished cell. Calls are
	// serialized and arrive in canonical (method, rep, problem) index
	// order regardless of Workers — out-of-order completions are
	// buffered — so an attached event stream is bit-reproducible at
	// any worker count. The callback must not call back into the
	// harness.
	OnCell func(CellEvent)
	// OnGroup, when non-nil, is called after the last cell of each
	// (method, rep) group has been released through OnCell, in
	// canonical group order (a per-group progress line goes here).
	OnGroup func(method Method, rep int)

	// Evaluator, when non-nil, grades every cell instead of a freshly
	// constructed one. Sharing an evaluator across runs reuses its
	// per-problem fixtures (golden testbenches, elaborated goldens,
	// mutant designs); the caller must derive it from the same Seed to
	// preserve reproducibility (see autoeval.NewEvaluator).
	Evaluator *autoeval.Evaluator

	// MaxCorrections, MaxReboots and NR override Algorithm 1's budgets
	// (I_C^max, I_R^max, N_R) when non-nil. Explicit zeros are honored
	// — that is what enables no-correction ablations — while nil keeps
	// the paper defaults of core.DefaultOptions.
	MaxCorrections *int
	MaxReboots     *int
	NR             *int

	// Store, when non-nil, is consulted before any cell is scheduled
	// and written back as cells complete: cells whose key (CellKey) is
	// already present replay their stored outcome with zero simulation,
	// in the same canonical release order and with the same events as a
	// cold run — only CellEvent.Cached and the zero Duration tell them
	// apart. Cells that miss are simulated and persisted, which is what
	// makes an interrupted experiment resumable: resubmitting an
	// identical config replays the finished cells and simulates only
	// the remainder. The store may be shared by concurrent runs.
	//
	// The store is allowed to misbehave: every access goes through a
	// per-run guard (see guard.go) that retries failed write-backs
	// with capped, jittered backoff, drops them after a bounded budget,
	// and opens a circuit breaker — degrading the rest of the run to
	// cache-bypass, NoStore-equivalent mode — when the store looks
	// dead. A store fault can therefore never fail, block, or change
	// the byte stream of a run; the accounting lands in Results.Store.
	Store store.Store

	// CellHook, when non-nil, runs in the worker goroutine immediately
	// before a cell is simulated (store-replayed cells never reach it),
	// receiving the canonical cell index. It exists for chaos testing
	// (internal/faults.Injector.CellStart): injected latency reshuffles
	// completion order, which the ordered emitter must absorb without
	// any observable difference. The hook must be safe for concurrent
	// calls and must not call back into the harness.
	CellHook func(index int)

	// Trace, when non-nil, collects one span tree per cell — simulated
	// or store-replayed — covering the full execution path:
	// store_lookup, queue_wait, simulate with its
	// sim_elaborate/sim_compile/sim_run sub-spans, grade, and
	// store_writeback; its obs.Observer, if any, aggregates the spans.
	// Span IDs are deterministic (derived from the cell's content
	// address via obs.SpanID); the durations are wall clock. Tracing
	// is operational metadata exactly like CellEvent.Duration: it never
	// reaches the event stream, Results, or the store, so traced and
	// untraced runs stay byte-identical.
	Trace *obs.JobTrace
}

// CellEvent describes one finished experiment cell, as delivered to
// Config.OnCell. Every field except Duration is a pure function of
// (Config.Seed, coordinates); Duration is wall clock and is the only
// non-deterministic field in an event stream.
type CellEvent struct {
	// Index is the canonical cell number (method-major, then rep, then
	// problem).
	Index   int
	Method  Method
	Rep     int // 0-based repetition
	Problem string
	Outcome TaskOutcome
	// Duration is the cell's wall-clock execution time; it is zero for
	// cells replayed from the store.
	Duration time.Duration
	// Cached reports that the outcome was replayed from Config.Store
	// instead of simulated. Like Duration it is operational metadata,
	// not part of the reproducibility contract (the correctbenchd wire
	// format omits both), so warm and cold event streams stay
	// byte-identical.
	Cached bool
}

// Normalize applies the documented defaults in place: gpt-4o profile,
// 70%-wrong criterion, at least one rep, the full dataset and all
// three methods. Run applies it automatically; it is exported (and
// idempotent) so callers that report the experiment grid before
// running — the Client's JobStarted event and snapshots — derive it
// exactly as the harness will.
func (c *Config) Normalize() {
	if c.Profile == nil {
		c.Profile = llm.GPT4o()
	}
	if c.Criterion.Name == "" {
		c.Criterion = validator.Wrong70
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	if len(c.Problems) == 0 {
		c.Problems = dataset.All()
	}
	if len(c.Methods) == 0 {
		c.Methods = AllMethods()
	}
}

// Results holds all task outcomes of an experiment.
type Results struct {
	Config   Config
	Outcomes map[Method][][]TaskOutcome // method -> rep -> tasks

	// Store is the run's result-store accounting: how many cells were
	// replayed from Config.Store versus simulated (a fully warm rerun
	// has Store.Misses == 0), and the fault-tolerance counters
	// (write-back retries, drops, breaker state). Zero when no store
	// was configured.
	Store StoreUsage
}

// CellStream derives the private random stream of one experiment
// cell. The path is (seed → method → rep → problem): every cell's
// randomness is a pure function of those coordinates, never of how
// many draws other cells made, which is what makes cells schedulable
// in any order. Exposed so studies outside Run (and tests) derive
// streams the same way.
func CellStream(seed int64, method Method, rep int, problem string) rng.Stream {
	return rng.New(seed).
		Child("method", string(method)).
		ChildN("rep", rep).
		Child("problem", problem)
}

// cell is one unit of harness work. Cells are numbered in canonical
// (method, rep, problem) iteration order; the index makes error
// selection and progress reporting deterministic under concurrency.
type cell struct {
	idx        int
	mi, ri, pi int
	key        store.Key // content address, derived when a store or tracing needs it

	// store_lookup timing (offsets relative to the run's trace epoch);
	// populated only on traced runs with a store.
	lookStartUS, lookDurUS int64
}

// EvaluatorSeed derives the AutoEval evaluator seed the harness uses
// for an experiment seed. Exposed so callers sharing an evaluator
// across runs (Config.Evaluator) derive it identically.
func EvaluatorSeed(seed int64) int64 { return seed ^ 0x5eed }

// cellKeySchema versions the cell-key composition itself. Bump it
// whenever anything that feeds a cell outcome changes in a way the
// key components cannot see — simulator semantics, LLM profile
// tables, grading rules — so every previously stored cell becomes
// unreachable instead of stale.
const cellKeySchema = 1

// CellKey returns the content address of one experiment cell for the
// evaluation-cell store (Config.Store): a SHA-256 over every input
// its outcome is a function of —
//
//   - the key schema version (cellKeySchema),
//   - the problem's name and dataset fingerprint (spec, golden
//     source, ports, difficulty — see dataset.Problem.Fingerprint),
//   - the method and repetition,
//   - the cell's derived random seed (CellStream) and the experiment's
//     evaluator seed (EvaluatorSeed, which fixes the mutant fixtures),
//   - the LLM profile name, and
//   - for CorrectBench cells only: the validation criterion name and
//     the effective Algorithm-1 budgets (I_C^max, I_R^max, N_R) after
//     nil-means-paper-default resolution. AutoBench and Baseline never
//     read the criterion or budgets (runTask), so hashing them would
//     only force two thirds of the grid to re-simulate across
//     criterion sweeps and budget ablations for identical outcomes.
//
// Two configs that resolve to the same key are guaranteed to simulate
// byte-identical outcomes (Workers and the event plumbing do not
// participate); any outcome-relevant divergence — a dataset edit,
// another criterion, an explicit-zero budget — lands on a different
// key. cfg must be normalized.
func CellKey(cfg *Config, method Method, rep int, p *dataset.Problem) store.Key {
	h := sha256.New()
	fmt.Fprintf(h, "correctbench-cell/v%d\n", cellKeySchema)
	fmt.Fprintf(h, "problem=%s\nfp=%s\nmethod=%s\nrep=%d\n", p.Name, p.Fingerprint(), method, rep)
	fmt.Fprintf(h, "cellseed=%d\nevalseed=%d\n", CellStream(cfg.Seed, method, rep, p.Name).Seed(), EvaluatorSeed(cfg.Seed))
	fmt.Fprintf(h, "llm=%s\n", cfg.Profile.Name)
	if method == MethodCorrectBench {
		opt := algorithmOptions(cfg)
		fmt.Fprintf(h, "criterion=%s\nmc=%d\nmr=%d\nnr=%d\n", opt.Criterion.Name, opt.MaxCorrections, opt.MaxReboots, opt.NR)
	}
	var k store.Key
	h.Sum(k[:0])
	return k
}

// algorithmOptions is the Algorithm-1 configuration a CorrectBench cell
// runs with: core.DefaultOptions for the profile, with cfg's criterion
// and whichever budgets cfg overrides. CellKey hashes the same options
// generateTask runs, so the key cannot drift from the run.
func algorithmOptions(cfg *Config) core.Options {
	opt := core.DefaultOptions(cfg.Profile)
	opt.Criterion = cfg.Criterion
	if cfg.MaxCorrections != nil {
		opt.MaxCorrections = *cfg.MaxCorrections
	}
	if cfg.MaxReboots != nil {
		opt.MaxReboots = *cfg.MaxReboots
	}
	if cfg.NR != nil {
		opt.NR = *cfg.NR
	}
	return opt
}

// toStoreOutcome converts a finished cell for persistence.
func toStoreOutcome(o TaskOutcome) store.Outcome {
	return store.Outcome{
		Problem:             o.Problem,
		Kind:                uint8(o.Kind),
		Grade:               uint8(o.Grade),
		ValidatorIntervened: o.ValidatorIntervened,
		CorrectorShaped:     o.CorrectorShaped,
		FinalValidated:      o.FinalValidated,
		Corrections:         uint32(o.Corrections),
		Reboots:             uint32(o.Reboots),
		TokensIn:            uint64(o.TokensIn),
		TokensOut:           uint64(o.TokensOut),
	}
}

// fromStoreOutcome rebuilds a cell outcome from its stored form. The
// problem identity comes from the live dataset problem, not the
// record; ok is false when the record does not belong to p (which
// would take a SHA-256 collision or a damaged index — treated as a
// miss either way).
func fromStoreOutcome(so store.Outcome, p *dataset.Problem) (TaskOutcome, bool) {
	if so.Problem != p.Name {
		return TaskOutcome{}, false
	}
	return TaskOutcome{
		Problem:             p.Name,
		Kind:                p.Kind,
		Grade:               autoeval.Grade(so.Grade),
		ValidatorIntervened: so.ValidatorIntervened,
		CorrectorShaped:     so.CorrectorShaped,
		FinalValidated:      so.FinalValidated,
		Corrections:         int(so.Corrections),
		Reboots:             int(so.Reboots),
		TokensIn:            int(so.TokensIn),
		TokensOut:           int(so.TokensOut),
	}, true
}

// RunContext executes the configured experiment over a bounded worker
// pool.
//
// Determinism: each cell draws from its own derived stream and writes
// into its own pre-allocated result slot, so Workers: 1 and
// Workers: 8 produce identical Results. On failure the error of the
// canonically earliest failing cell is returned (the same error a
// sequential run would hit first).
//
// Cancellation: the context is plumbed into every cell's simulations
// (core → validator → autoeval → internal/sim), so cancelling stops
// the workers within one simulation step batch; the run then returns
// ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	cfg.Normalize()
	eval := cfg.Evaluator
	if eval == nil {
		eval = autoeval.NewEvaluator(EvaluatorSeed(cfg.Seed))
	}
	res := &Results{Config: cfg, Outcomes: map[Method][][]TaskOutcome{}}

	// Pre-allocate every result slot: workers write disjoint elements
	// and never touch the map, so assembly needs no locks and the
	// final layout is independent of completion order.
	for _, m := range cfg.Methods {
		reps := make([][]TaskOutcome, cfg.Reps)
		for r := range reps {
			reps[r] = make([]TaskOutcome, len(cfg.Problems))
		}
		res.Outcomes[m] = reps
	}

	total := len(cfg.Methods) * cfg.Reps * len(cfg.Problems)
	if total == 0 {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	emit := newOrderedEmitter(cfg)

	// Every store access goes through the per-run guard: bounded
	// write-back retries, drop accounting, and the circuit breaker
	// that degrades a run with a dead store to cache-bypass mode.
	var guard *storeGuard
	if cfg.Store != nil {
		guard = newStoreGuard(cfg.Store, cfg.Seed)
	}

	// Phase timing is on when a trace is attached. The epoch is the
	// run's trace time origin: every sample offset is microseconds
	// since this instant.
	traceOn := cfg.Trace != nil
	var epoch time.Time
	if traceOn {
		epoch = time.Now() //detlint:allow the trace epoch is wall-clock metadata like CellEvent.Duration, excluded from the deterministic surface
	}
	finish := func() *Results {
		if guard != nil {
			u := guard.snapshot()
			u.Hits, u.Misses = res.Store.Hits, res.Store.Misses
			res.Store = u
		}
		return res
	}

	// Store lookup phase: resolve every cell against the store before
	// any scheduling. Hits are written straight into their result slots
	// and released through the ordered emitter — the same canonical
	// release order a cold run has, so attached event streams are
	// byte-identical warm or cold — and only misses become worker
	// jobs. Lookups are in-memory index reads, so even the full grid
	// resolves in microseconds.
	pending := make([]cell, 0, total)
	idx := 0
	for mi, m := range cfg.Methods {
		for ri := 0; ri < cfg.Reps; ri++ {
			for pi, p := range cfg.Problems {
				c := cell{idx: idx, mi: mi, ri: ri, pi: pi}
				idx++
				if guard != nil {
					var lookStart time.Time
					if traceOn {
						lookStart = time.Now() //detlint:allow store_lookup phase duration, wall-clock metadata
					}
					c.key = CellKey(&cfg, m, ri, p)
					so, hit := guard.get(c.key)
					if traceOn {
						c.lookStartUS = lookStart.Sub(epoch).Microseconds()
						c.lookDurUS = time.Since(lookStart).Microseconds()
					}
					if hit {
						if o, ok := fromStoreOutcome(so, p); ok {
							res.Outcomes[m][ri][pi] = o
							res.Store.Hits++
							if traceOn {
								// A replayed cell's whole execution is its
								// store lookup: a one-span trace.
								recordCellTrace(&cfg, c, m, p.Name, true, []obs.PhaseSample{{
									Phase: obs.PhaseLookup, Seq: 0, ParentSeq: -1,
									StartUS: c.lookStartUS, DurUS: c.lookDurUS,
								}})
							}
							emit.cellDone(CellEvent{
								Index: c.idx, Method: m, Rep: ri, Problem: p.Name,
								Outcome: o, Cached: true,
							})
							continue
						}
					}
					res.Store.Misses++
				}
				pending = append(pending, c)
			}
		}
	}
	if len(pending) == 0 {
		// Fully warm: every cell replayed, nothing to simulate.
		return finish(), nil
	}

	if guard == nil && traceOn {
		// Traces derive their deterministic span IDs from the content
		// address; derive keys even when no store is attached.
		for i := range pending {
			c := &pending[i]
			c.key = CellKey(&cfg, cfg.Methods[c.mi], c.ri, cfg.Problems[c.pi])
		}
	}
	if err := runPending(ctx, &cfg, pending, eval, guard, emit, res, epoch); err != nil {
		return nil, err
	}
	return finish(), nil
}

// orderedEmitter releases finished cells in canonical index order —
// out-of-order completions are buffered — and drives Config.OnCell and
// Config.OnGroup from that ordered stream. Because release order is
// canonical, everything downstream (progress text, event streams) is
// byte-identical for any worker count.
type orderedEmitter struct {
	mu     sync.Mutex
	cfg    *Config
	buf    map[int]CellEvent // completed but not yet released
	next   int               // next canonical index to release
	perGrp int
}

func newOrderedEmitter(cfg Config) *orderedEmitter {
	return &orderedEmitter{cfg: &cfg, buf: map[int]CellEvent{}, perGrp: len(cfg.Problems)}
}

func (t *orderedEmitter) cellDone(ev CellEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf[ev.Index] = ev
	for {
		e, ok := t.buf[t.next]
		if !ok {
			return
		}
		delete(t.buf, t.next)
		if t.cfg.OnCell != nil {
			t.cfg.OnCell(e)
		}
		t.next++
		if t.cfg.OnGroup != nil && t.next%t.perGrp == 0 {
			grp := t.next/t.perGrp - 1
			t.cfg.OnGroup(t.cfg.Methods[grp/t.cfg.Reps], grp%t.cfg.Reps)
		}
	}
}

func runTask(ctx context.Context, method Method, p *dataset.Problem, cfg Config, eval *autoeval.Evaluator, rng *rand.Rand) (TaskOutcome, error) {
	o := TaskOutcome{Problem: p.Name, Kind: p.Kind}
	tb, err := generateTask(ctx, method, p, cfg, rng, &o)
	if err != nil {
		return o, err
	}
	endGrade := obs.Time(ctx, obs.PhaseGrade)
	grade, err := eval.EvaluateContext(ctx, tb)
	endGrade()
	if err != nil {
		return o, err
	}
	o.Grade = grade
	return o, nil
}

// generateTask runs the method's testbench generation (for
// CorrectBench: Algorithm 1 end to end, including its validation
// simulations), filling o's trace fields. The whole step is one
// "simulate" phase span on a traced run; the sim_* sub-spans recorded
// inside internal/sim nest under it.
func generateTask(ctx context.Context, method Method, p *dataset.Problem, cfg Config, rng *rand.Rand, o *TaskOutcome) (*testbench.Testbench, error) {
	defer obs.Time(ctx, obs.PhaseSimulate)()
	switch method {
	case MethodCorrectBench:
		r, err := core.RunContext(ctx, p, algorithmOptions(&cfg), rng)
		if err != nil {
			return nil, err
		}
		o.ValidatorIntervened = r.Trace.ValidatorIntervened
		o.CorrectorShaped = r.Trace.CorrectorShaped
		o.FinalValidated = r.Trace.FinalValidated
		o.Corrections = r.Trace.Corrections
		o.Reboots = r.Trace.Reboots
		o.TokensIn, o.TokensOut = r.Trace.Tokens.In, r.Trace.Tokens.Out
		return r.Testbench, nil
	case MethodAutoBench, MethodBaseline:
		gen, err := autobench.ForMethod(string(method), cfg.Profile)
		if err != nil {
			return nil, err
		}
		trait := cfg.Profile.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, rng)
		var acct llm.Accountant
		tb, err := gen.Generate(p, trait, rng, &acct)
		if err != nil {
			return nil, err
		}
		o.TokensIn, o.TokensOut = acct.In, acct.Out
		return tb, nil
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

// ---- aggregation ----

// Group selects a task subset for aggregation.
type Group struct {
	Name   string
	Filter func(TaskOutcome) bool
}

// Groups returns the paper's three row groups.
func Groups() []Group {
	return []Group{
		{"Total", func(TaskOutcome) bool { return true }},
		{"CMB", func(o TaskOutcome) bool { return o.Kind == dataset.CMB }},
		{"SEQ", func(o TaskOutcome) bool { return o.Kind == dataset.SEQ }},
	}
}

// PassStats gives the average number and ratio of tasks reaching at
// least a grade, across repetitions.
type PassStats struct {
	AvgCount float64
	Ratio    float64
}

// Stats computes pass statistics for a method, group and minimum grade.
func (r *Results) Stats(method Method, g Group, min autoeval.Grade) PassStats {
	reps := r.Outcomes[method]
	if len(reps) == 0 {
		return PassStats{}
	}
	totalTasks := 0
	sum := 0.0
	for repIdx, rep := range reps {
		n, passed := 0, 0
		for _, o := range rep {
			if !g.Filter(o) {
				continue
			}
			n++
			if o.Grade >= min {
				passed++
			}
		}
		if repIdx == 0 {
			totalTasks = n
		}
		sum += float64(passed)
	}
	avg := sum / float64(len(reps))
	ratio := 0.0
	if totalTasks > 0 {
		ratio = avg / float64(totalTasks)
	}
	return PassStats{AvgCount: avg, Ratio: ratio}
}

// GradeShare returns the average fraction of tasks whose grade is
// exactly g (for the Fig. 7 stacked bars).
func (r *Results) GradeShare(method Method, grade autoeval.Grade) float64 {
	reps := r.Outcomes[method]
	if len(reps) == 0 {
		return 0
	}
	sum := 0.0
	for _, rep := range reps {
		n, hit := 0, 0
		for _, o := range rep {
			n++
			if o.Grade == grade {
				hit++
			}
		}
		if n > 0 {
			sum += float64(hit) / float64(n)
		}
	}
	return sum / float64(len(reps))
}

// Attribution computes Table III: the average number of Eval2-passed
// CorrectBench tasks in which the validator intervened ("Val.") and, of
// those, the ones whose final testbench carries a surviving correction
// ("Corr."), plus the gain over AutoBench.
type Attribution struct {
	Group        string
	CorrectBench float64
	AutoBench    float64
	Gain         float64
	Validator    float64
	Corrector    float64
}

// Attribute computes the attribution rows.
func (r *Results) Attribute() []Attribution {
	var out []Attribution
	for _, g := range Groups() {
		cb := r.Stats(MethodCorrectBench, g, autoeval.GradeEval2)
		ab := r.Stats(MethodAutoBench, g, autoeval.GradeEval2)
		a := Attribution{
			Group:        g.Name,
			CorrectBench: cb.AvgCount,
			AutoBench:    ab.AvgCount,
			Gain:         cb.AvgCount - ab.AvgCount,
		}
		reps := r.Outcomes[MethodCorrectBench]
		for _, rep := range reps {
			val, corr := 0, 0
			for _, o := range rep {
				if !g.Filter(o) || o.Grade < autoeval.GradeEval2 {
					continue
				}
				if o.ValidatorIntervened {
					val++
					if o.CorrectorShaped {
						corr++
					}
				}
			}
			a.Validator += float64(val)
			a.Corrector += float64(corr)
		}
		if len(reps) > 0 {
			a.Validator /= float64(len(reps))
			a.Corrector /= float64(len(reps))
		}
		out = append(out, a)
	}
	return out
}

// AvgTokens returns average input/output token counts per task.
func (r *Results) AvgTokens(method Method) (in, out float64) {
	reps := r.Outcomes[method]
	n := 0
	for _, rep := range reps {
		for _, o := range rep {
			in += float64(o.TokensIn)
			out += float64(o.TokensOut)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return in / float64(n), out / float64(n)
}
