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
	// Seed makes fixture construction deterministic.
	Seed int64

	mu       sync.Mutex // guards the fixtures map only, never held during builds
	fixtures map[string]*fixtureEntry
}

// The paper's Eval2 configuration: the number of golden-RTL mutants
// and the verdict-agreement threshold.
const (
	mutantCount = 10
	agreeFrac   = 0.8
)

// NewEvaluator returns an evaluator with the paper's configuration.
func NewEvaluator(seed int64) *Evaluator {
	return &Evaluator{Seed: seed}
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
	// wave-at-a-time as lanes of one batched pass.
	lanes := newLaneJudge(golden, goldenDesign, p.Top)
	kills := func(ms []*verilog.Module) []bool {
		_, fail := lanes.run(gtb, ms)
		return fail
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
	candidates := mutate.DistinctMutants(golden, rng, mutantCount*3, 1, kills)
	if len(candidates) < mutantCount {
		// Problems with few mutation sites: widen to 2-fault mutants.
		candidates = append(candidates, mutate.DistinctMutants(golden, rng, mutantCount*2, 2, kills)...)
	}
	var subtle, gross []*verilog.Module
	pass, _ := lanes.run(probe, candidates)
	for i, ok := range pass {
		if ok {
			subtle = append(subtle, candidates[i])
		} else {
			gross = append(gross, candidates[i])
		}
	}
	// Up to 70% subtle, the rest gross (mirroring the dataset's mix).
	var mutants []*verilog.Module
	maxSubtle := mutantCount * 7 / 10
	for _, m := range subtle {
		if len(mutants) >= maxSubtle {
			break
		}
		mutants = append(mutants, m)
	}
	for _, m := range gross {
		if len(mutants) >= mutantCount {
			break
		}
		mutants = append(mutants, m)
	}
	for _, m := range subtle {
		if len(mutants) >= mutantCount {
			break
		}
		if !containsModule(mutants, m) {
			mutants = append(mutants, m)
		}
	}
	f := &fixture{golden: gtb}
	for _, m := range mutants {
		d, err := lanes.elaborate(m)
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

// laneJudge runs candidate modules against testbenches as lanes of one
// batched pass over the golden design. A candidate that passes a kill
// check is simulated again by the subtlety probe and may be kept as an
// Eval2 DUT, so each candidate's design is memoized for the whole
// fixture build. The memo is keyed on the printed text, which is also
// what is elaborated, because error texts carry positions in that text:
// separate draws of the same mutant share one design, which a DUTSet
// simulates as one lane. The memo starts with the golden's own text, so
// a candidate that prints as the golden is the golden design itself.
type laneJudge struct {
	golden *sim.Design
	top    string
	memo   map[string]*sim.Design
}

func newLaneJudge(golden *verilog.Module, design *sim.Design, top string) *laneJudge {
	return &laneJudge{golden: design, top: top, memo: map[string]*sim.Design{verilog.PrintModule(golden): design}}
}

func (j *laneJudge) elaborate(m *verilog.Module) (*sim.Design, error) {
	src := verilog.PrintModule(m)
	if d, ok := j.memo[src]; ok {
		return d, nil
	}
	d, err := sim.ElaborateSourceContext(context.Background(), src, j.top)
	if err == nil {
		j.memo[src] = d
	}
	return d, err
}

// run simulates each module against tb, whose checker is the golden,
// and reports per module whether it passed and whether it failed. A
// module that does not elaborate or simulate does neither. The golden
// design passes without taking a lane.
func (j *laneJudge) run(tb *testbench.Testbench, ms []*verilog.Module) (pass, fail []bool) {
	pass, fail = make([]bool, len(ms)), make([]bool, len(ms))
	var designs []*sim.Design
	var idx []int
	for i, m := range ms {
		d, err := j.elaborate(m)
		switch {
		case err != nil:
		case d == j.golden:
			pass[i] = true
		default:
			designs = append(designs, d)
			idx = append(idx, i)
		}
	}
	if len(designs) == 0 {
		return pass, fail
	}
	// Fixture builds are not cancellable, so the run's
	// (cancellation-only) error is always nil.
	outs, _ := tb.RunBatchContext(context.Background(), testbench.NewDUTSet(j.golden, designs), true)
	for k, o := range outs {
		if o.Err == nil {
			ok := o.Res.Pass()
			pass[idx[k]], fail[idx[k]] = ok, !ok
		}
	}
	return pass, fail
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
	if float64(agree) >= agreeFrac*float64(len(f.mutantDesigns)) {
		return GradeEval2, nil
	}
	return GradeEval1, nil
}

// GoldenTestbench exposes the cached golden testbench for a problem,
// for tests and benchmarks that grade or time it directly. (The
// Fig. 6(a) validator-accuracy study does not use it: it labels a
// testbench by running it against the golden design.)
func (e *Evaluator) GoldenTestbench(p *dataset.Problem) (*testbench.Testbench, error) {
	f, err := e.fixtureFor(p)
	if err != nil {
		return nil, err
	}
	return f.golden, nil
}
