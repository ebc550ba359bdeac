// Package autoeval reproduces AutoEval, the evaluation methodology of
// AutoBench/CorrectBench (Table II of the paper):
//
//	Failed  the testbench has syntax errors
//	Eval0   the testbench parses (no syntax error)
//	Eval1   Eval0, and the golden RTL passes the testbench
//	Eval2   Eval1, and on 10 mutants of the golden RTL the testbench's
//	        pass/fail verdicts agree with the golden testbench's on at
//	        least 80% of the mutants
//
// The mutant set and the golden testbench are derived deterministically
// per problem, so every method is graded against identical DUTs.
package autoeval

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

// Grade is an AutoEval grade.
type Grade int

// Grades, ordered from worst to best.
const (
	GradeFailed Grade = iota
	GradeEval0
	GradeEval1
	GradeEval2
)

func (g Grade) String() string {
	switch g {
	case GradeFailed:
		return "Failed"
	case GradeEval0:
		return "Eval0"
	case GradeEval1:
		return "Eval1"
	default:
		return "Eval2"
	}
}

// Definitions returns Table II's criterion definitions, keyed by grade.
func Definitions() map[Grade]string {
	return map[Grade]string{
		GradeFailed: "codes have syntax error",
		GradeEval0:  "codes have no syntax error",
		GradeEval1:  "codes passed Eval0; report passed with the golden RTL code as DUT",
		GradeEval2:  "codes passed Eval1; use mutants of golden RTL as DUTs; have the same report as the golden testbench (passed or failed)",
	}
}

// Evaluator grades testbenches. It caches per-problem fixtures (golden
// testbench, mutant designs, golden verdicts), so one Evaluator should
// be shared across an experiment.
//
// Evaluator is safe for concurrent use. Fixture construction is
// locked per fixture, not globally: two goroutines evaluating
// different problems build their fixtures in parallel, while two
// goroutines racing on the same problem build it exactly once.
type Evaluator struct {
	// Mutants is the number of golden-RTL mutants (paper: 10).
	Mutants int
	// AgreeFrac is the verdict-agreement threshold (paper: 0.8).
	AgreeFrac float64
	// Seed makes fixture construction deterministic.
	Seed int64

	mu       sync.Mutex // guards the fixtures map only, never held during builds
	fixtures map[string]*fixtureEntry
}

// NewEvaluator returns an evaluator with the paper's configuration.
func NewEvaluator(seed int64) *Evaluator {
	return &Evaluator{Mutants: 10, AgreeFrac: 0.8, Seed: seed}
}

type fixture struct {
	golden *testbench.Testbench
	// mutantDesigns holds one design per drawn mutant, in draw order.
	// Draws of the same text share a design.
	mutantDesigns []*sim.Design
	// goldenSet is the golden design as a one-DUT set (Eval1) and
	// mutantSet the mutant set (Eval2), each compiled once over the
	// golden design. They are immutable and shared by every grade.
	// Sharing the golden design as the base lets Eval1 and Eval2 replay
	// one recorded checker trace.
	goldenSet, mutantSet *testbench.DUTSet
}

// fixtureEntry is the per-problem build lock: the entry is installed
// in the map under e.mu, but the expensive build runs under the
// entry's own once, outside the map lock.
type fixtureEntry struct {
	once sync.Once
	f    *fixture
	err  error
}

// fixtureFor builds (or retrieves) the per-problem fixture. The
// fixture's random stream is derived from (evaluator seed, problem
// name) alone, so fixtures are identical whatever order — or
// concurrency — problems are first evaluated in.
func (e *Evaluator) fixtureFor(p *dataset.Problem) (*fixture, error) {
	e.mu.Lock()
	if e.fixtures == nil {
		e.fixtures = map[string]*fixtureEntry{}
	}
	ent, ok := e.fixtures[p.Name]
	if !ok {
		ent = &fixtureEntry{}
		e.fixtures[p.Name] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.f, ent.err = e.buildFixture(p)
	})
	return ent.f, ent.err
}

func (e *Evaluator) buildFixture(p *dataset.Problem) (*fixture, error) {
	rng := rand.New(rand.NewSource(e.Seed ^ int64(len(p.Name))<<32 ^ hashName(p.Name)))
	gtb, err := testbench.Golden(p, rng)
	if err != nil {
		return nil, err
	}
	goldenDesign, err := p.Elaborate()
	if err != nil {
		return nil, err
	}
	golden, err := p.Module()
	if err != nil {
		return nil, err
	}

	// Mutants must be killable by the golden testbench: that is what
	// makes them useful Eval2 probes. The kill checks run
	// wave-at-a-time as lanes of one batched pass. A candidate that
	// passes is simulated again by the subtlety probe and may be kept
	// as an Eval2 DUT, so elaborate memoizes each candidate's design
	// for the rest of this build. It elaborates the printed text, not
	// the module, because error texts carry positions in that text, and
	// it keys the memo on that text: separate draws of the same mutant
	// share one design, which a DUTSet simulates as one lane.
	elaborated := map[string]*sim.Design{}
	elaborate := func(m *verilog.Module) (*sim.Design, error) {
		src := verilog.PrintModule(m)
		if d, ok := elaborated[src]; ok {
			return d, nil
		}
		d, err := sim.ElaborateSourceContext(context.Background(), src, p.Top)
		if err == nil {
			elaborated[src] = d
		}
		return d, err
	}
	// batchRun elaborates a module set and runs the lanes that
	// elaborate through one batched pass of tb, returning per-module
	// outcomes (Err set for elaboration failures).
	batchRun := func(tb *testbench.Testbench, ms []*verilog.Module) []testbench.BatchOutcome {
		out := make([]testbench.BatchOutcome, len(ms))
		designs := make([]*sim.Design, 0, len(ms))
		idx := make([]int, 0, len(ms))
		for i, m := range ms {
			d, err := elaborate(m)
			if err != nil {
				out[i].Err = fmt.Errorf("dut: %w", err)
				continue
			}
			designs = append(designs, d)
			idx = append(idx, i)
		}
		if len(designs) > 0 {
			// Fixture builds are not cancellable, so the run's
			// (cancellation-only) error is always nil.
			outs, _ := tb.RunBatchContext(context.Background(), testbench.NewDUTSet(goldenDesign, designs), true)
			for j, o := range outs {
				out[idx[j]] = o
			}
		}
		return out
	}
	batchDiffers := func(ms []*verilog.Module) []mutate.DifferenceResult {
		res := make([]mutate.DifferenceResult, len(ms))
		for i, o := range batchRun(gtb, ms) {
			if o.Err != nil {
				res[i].Err = o.Err
			} else {
				res[i].Differs = !o.Res.Pass()
			}
		}
		return res
	}
	// A corner-free random probe separates subtle mutants (killed only
	// by corner/exhaustive or directed stimuli) from gross ones. The
	// paper's hand-extended mutant set leans subtle, which is exactly
	// what gives Eval2 its coverage-discriminating power; we reproduce
	// that by preferring mutants the probe misses. Sequential mutants
	// get a long random probe: surviving it means the fault hides from
	// random walks entirely, the class that separates thorough
	// testbenches from thin ones.
	probeCov := testbench.Coverage{Scenarios: 2, Steps: 4}
	if p.Kind == dataset.SEQ {
		probeCov = testbench.Coverage{Scenarios: 5, Steps: 10}
	}
	probeScs, err := testbench.GenerateScenarios(p, rng, probeCov)
	if err != nil {
		return nil, err
	}
	probe := &testbench.Testbench{
		Problem: p, Scenarios: probeScs,
		CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1,
	}
	// Candidates are statically pre-screened: identity mutants never
	// reach a simulation lane (the screen is draw-preserving, so the
	// selected mutants are the same with or without it).
	screen := mutate.NewScreen(golden)
	candidates := mutate.DistinctMutantsBatchScreened(golden, rng, e.Mutants*3, 1, batchDiffers, screen)
	if len(candidates) < e.Mutants {
		// Problems with few mutation sites: widen to 2-fault mutants.
		candidates = append(candidates, mutate.DistinctMutantsBatchScreened(golden, rng, e.Mutants*2, 2, batchDiffers, screen)...)
	}
	var subtle, gross []*verilog.Module
	for i, o := range batchRun(probe, candidates) {
		if o.Err == nil && o.Res.Pass() {
			subtle = append(subtle, candidates[i])
		} else {
			gross = append(gross, candidates[i])
		}
	}
	// Up to 70% subtle, the rest gross (mirroring the dataset's mix).
	var mutants []*verilog.Module
	maxSubtle := e.Mutants * 7 / 10
	for _, m := range subtle {
		if len(mutants) >= maxSubtle {
			break
		}
		mutants = append(mutants, m)
	}
	for _, m := range gross {
		if len(mutants) >= e.Mutants {
			break
		}
		mutants = append(mutants, m)
	}
	for _, m := range subtle {
		if len(mutants) >= e.Mutants {
			break
		}
		if !containsModule(mutants, m) {
			mutants = append(mutants, m)
		}
	}
	f := &fixture{golden: gtb}
	for _, m := range mutants {
		d, err := elaborate(m)
		if err != nil {
			continue
		}
		f.mutantDesigns = append(f.mutantDesigns, d)
	}
	if len(f.mutantDesigns) == 0 {
		return nil, fmt.Errorf("autoeval: no usable mutants for %s", p.Name)
	}
	// Compile once: every grade replays the same lanes, so a per-call
	// compile would be pure overhead.
	f.goldenSet = testbench.NewDUTSet(goldenDesign, []*sim.Design{goldenDesign})
	f.mutantSet = testbench.NewDUTSet(goldenDesign, f.mutantDesigns)
	return f, nil
}

func containsModule(list []*verilog.Module, m *verilog.Module) bool {
	for _, x := range list {
		if x == m {
			return true
		}
	}
	return false
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

// EvaluateContext grades one testbench. The mutant runs stop within
// one simulation step batch of ctx being cancelled and the context's
// error is returned (never folded into a grade). Fixture
// construction itself is not cancellable — fixtures are built once and
// shared across every job using the evaluator, so a cancelled build
// must never poison the cache.
func (e *Evaluator) EvaluateContext(ctx context.Context, tb *testbench.Testbench) (Grade, error) {
	p := tb.Problem
	if !tb.SyntaxOK() {
		return GradeFailed, nil
	}
	f, err := e.fixtureFor(p)
	if err != nil {
		return GradeFailed, err
	}

	// Eval1: the golden RTL must pass. Eval2: verdict agreement on the
	// mutants. Both run with early exit (a lane stops simulating once a
	// scenario has failed it — the verdict is already known) and replay
	// the same recorded checker trace.
	outs, err := tb.RunBatchContext(ctx, f.goldenSet, true)
	if err != nil {
		return GradeFailed, err
	}
	if o := outs[0]; o.Err != nil || !o.Res.Pass() {
		return GradeEval0, nil
	}
	outs, err = tb.RunBatchContext(ctx, f.mutantSet, true)
	if err != nil {
		return GradeFailed, err
	}
	// The golden testbench fails every mutant (each is drawn for being
	// killed), so agreeing with it means failing the mutant. A mutant
	// drawn more than once is simulated once (its draws share a design,
	// hence a lane) but counts once per draw, as it always has, so the
	// agreement fraction — and every grade — is that of the draw.
	agree := 0
	for _, o := range outs {
		verdict := o.Err == nil && o.Res.Pass()
		if !verdict {
			agree++
		}
	}
	if float64(agree) >= e.AgreeFrac*float64(len(f.mutantDesigns)) {
		return GradeEval2, nil
	}
	return GradeEval1, nil
}

// GoldenTestbench exposes the cached golden testbench for a problem
// (used by the validator-accuracy study to label testbenches).
func (e *Evaluator) GoldenTestbench(p *dataset.Problem) (*testbench.Testbench, error) {
	f, err := e.fixtureFor(p)
	if err != nil {
		return nil, err
	}
	return f.golden, nil
}
