// Package autobench reproduces the two testbench generators the paper
// evaluates against CorrectBench's validation loop:
//
//   - Baseline: directly asking the LLM for a testbench in one shot
//     (thin scenario lists, high syntax-error rate), and
//   - AutoBench [Qiu et al., MLCAD 2024]: the scenario-list, driver and
//     checker tracks plus the self-enhancement stages (syntax
//     auto-debug, scenario-list completion, code standardization).
//
// Both produce testbench.Testbench artifacts; their quality statistics
// come from the llm.Profile in use (see DESIGN.md's substitution
// table).
package autobench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

// Generator produces a testbench from a problem specification.
type Generator interface {
	// Name identifies the method in result tables.
	Name() string
	// Generate builds one testbench under the task's systematic traits
	// (see llm.TaskTrait). Token usage is charged to acct.
	Generate(p *dataset.Problem, trait llm.TaskTrait, rng *rand.Rand, acct *llm.Accountant) (*testbench.Testbench, error)
}

// observablyFaulty reports whether the checker candidate behaves
// differently from the golden RTL on the given scenarios (i.e. the
// injected fault is a real functional error, not an equivalent
// mutation). Checkers that fail to simulate count as observable. The
// probe runs on the generator's trace store, so the golden is recorded
// once per scenario however many candidates are probed, and an
// accepted checker's parse, design and trace serve the testbench that
// carries it.
func observablyFaulty(p *dataset.Problem, checkerSrc string, scenarios []testbench.Scenario, store *testbench.TraceStore) bool {
	goldenDesign, err := p.Elaborate()
	if err != nil {
		return true
	}
	tb := &testbench.Testbench{
		Problem:       p,
		Scenarios:     scenarios,
		CheckerSource: checkerSrc,
		CheckerTop:    p.Top,
		CheckerSticky: -1,
	}
	tb.UseTraceStore(store)
	res, err := tb.RunAgainstDesignContext(context.Background(), goldenDesign)
	if err != nil {
		return true
	}
	return !res.Pass()
}

// stickySites memoizes a generator's sticky fault sites per (problem,
// seed): a reboot of a task regenerates under the same seed and finds
// the site already chosen. It lives in the generator value, so it is
// freed with the generator, and is safe for concurrent Generate calls.
type stickySites struct {
	m sync.Map // stickyKey -> int
}

type stickyKey struct {
	p    *dataset.Problem
	seed int64
}

// siteFor deterministically picks the task's sticky fault site: the
// first enumeration site (starting from a seed-derived offset) whose
// single mutation is observably wrong on a fixed stimulus set.
// Determinism across regenerations is what makes the misconception
// survive reboots.
func (c *stickySites) siteFor(p *dataset.Problem, golden *verilog.Module, seed int64, store *testbench.TraceStore) int {
	key := stickyKey{p, seed}
	if v, ok := c.m.Load(key); ok {
		return v.(int)
	}
	site := -1
	scRng := rand.New(rand.NewSource(seed))
	scenarios, err := testbench.GenerateScenarios(p, scRng, testbench.Coverage{
		Scenarios: 6, Steps: 8, Corners: true, Exhaustive: true,
	})
	if err == nil {
		base := mutate.Plan{EnumSeed: seed}
		_, _, n := base.Build(golden)
		if n > 0 {
			start := int(uint64(seed)>>33) % n
			for k := 0; k < n && k < 48; k++ {
				cand := (start + k) % n
				mod, muts, _ := base.With(cand).Build(golden)
				if len(muts) == 0 {
					continue
				}
				if observablyFaulty(p, verilog.PrintModule(mod), scenarios, store) {
					site = cand
					break
				}
			}
		}
	}
	c.m.Store(key, site)
	return site
}

// buildChecker produces the checker track: the LLM's reference model,
// modelled as the golden module with a sampled number of functional
// faults (empty plan = clean checker). Faults are retried until they
// are observable on the testbench's own scenarios — a "wrong checker"
// in the paper's sense is one that computes wrong reference outputs,
// not one with a cosmetic code difference. For misunderstood tasks the
// same sticky conceptual fault recurs in every regeneration; its site
// index is returned (-1 when absent). Its probes run on store.
func buildChecker(p *dataset.Problem, prof *llm.Profile, trait llm.TaskTrait, scenarios []testbench.Scenario, rng *rand.Rand, stickies *stickySites, store *testbench.TraceStore) (src string, plan mutate.Plan, sticky int, err error) {
	golden, err := p.Module()
	if err != nil {
		return "", mutate.Plan{}, -1, err
	}
	seq := p.Kind == dataset.SEQ
	if trait.Misunderstood && rng.Float64() >= prof.MisCleanProb {
		plan = mutate.Plan{EnumSeed: trait.StickySeed}
		sticky = stickies.siteFor(p, golden, trait.StickySeed, store)
		if sticky >= 0 {
			plan = plan.With(sticky)
		}
		mod, _, n := plan.Build(golden)
		// Ordinary per-call mistakes can pile on top.
		if n > 1 && rng.Float64() >= prof.CheckerCleanProb(p.Difficulty, seq) {
			sites := len(plan.Sites)
			extra := prof.SampleFaultCount(rng)
			for k := 0; k < extra; k++ {
				plan = plan.With(rng.Intn(n))
			}
			if len(plan.Sites) > sites {
				mod, _, _ = plan.Build(golden)
			}
		}
		return verilog.PrintModule(mod), plan, sticky, nil
	}
	if rng.Float64() < prof.CheckerCleanProb(p.Difficulty, seq) {
		return verilog.PrintModule(golden), mutate.Plan{EnumSeed: rng.Int63()}, -1, nil
	}
	// Faulty checker: retry until the fault is observable.
	for attempt := 0; attempt < 6; attempt++ {
		mod, muts, plan := mutate.Mutate(golden, rng, prof.SampleFaultCount(rng))
		if len(muts) == 0 {
			break
		}
		src = verilog.PrintModule(mod)
		if observablyFaulty(p, src, scenarios, store) {
			return src, plan, -1, nil
		}
	}
	// Could not produce an observable fault (tiny modules): the
	// checker is effectively correct.
	return verilog.PrintModule(golden), mutate.Plan{EnumSeed: rng.Int63()}, -1, nil
}

// Baseline is the "directly ask the LLM" method.
type Baseline struct {
	Profile *llm.Profile

	stickies stickySites
	// traces is the trace store of every testbench the generator emits
	// and of its checker probes. A generator serves one cell (a task's
	// generations and reboots), so one store spans the cell.
	traces testbench.TraceStore
}

// Name implements Generator.
func (b *Baseline) Name() string { return "Baseline" }

// Generate implements Generator.
func (b *Baseline) Generate(p *dataset.Problem, trait llm.TaskTrait, rng *rand.Rand, acct *llm.Accountant) (*testbench.Testbench, error) {
	prof := b.Profile
	acct.Charge(rng, prof.TokensBaselineIn+len(p.Spec)/3, prof.TokensBaselineOut)

	cov := testbench.Coverage{
		Scenarios: prof.BaselineScenarios,
		Steps:     prof.BaselineSteps,
	}
	if trait.WeakCoverage {
		cov.Scenarios = 3
		cov.Steps = 4
	}
	scenarios, err := testbench.GenerateScenarios(p, rng, cov)
	if err != nil {
		return nil, err
	}
	checkerSrc, plan, sticky, err := buildChecker(p, prof, trait, scenarios, rng, &b.stickies, &b.traces)
	if err != nil {
		return nil, err
	}
	tb := &testbench.Testbench{
		Problem:       p,
		Scenarios:     scenarios,
		CheckerSource: checkerSrc,
		CheckerTop:    p.Top,
		CheckerPlan:   plan,
		CheckerSticky: sticky,
	}
	tb.UseTraceStore(&b.traces)

	// One-shot generation has no syntax-repair stage.
	pSyntax := prof.BaselineSyntaxCMB
	if p.Kind == dataset.SEQ {
		pSyntax = prof.BaselineSyntaxSEQ
	}
	if rng.Float64() < pSyntax {
		corruptTestbench(tb, rng)
	}
	tb.TokensIn, tb.TokensOut = acct.In, acct.Out
	return tb, nil
}

// AutoBench reproduces the AutoBench workflow.
type AutoBench struct {
	Profile *llm.Profile

	stickies stickySites
	// traces is the generator's trace store, as in Baseline.
	traces testbench.TraceStore
}

// Name implements Generator.
func (a *AutoBench) Name() string { return "AutoBench" }

// Generate implements Generator.
func (a *AutoBench) Generate(p *dataset.Problem, trait llm.TaskTrait, rng *rand.Rand, acct *llm.Accountant) (*testbench.Testbench, error) {
	prof := a.Profile
	// Scenario-list call + driver call + checker call.
	acct.Charge(rng, prof.TokensGenIn+len(p.Spec)/3, prof.TokensGenOut)

	// Scenario-list completion: scenario count grows with difficulty
	// and corner/exhaustive scenarios are included — unless the model
	// systematically under-covers this task.
	cov := testbench.Coverage{
		Scenarios:  prof.GenScenarios + prof.GenScenarioBonus*p.Difficulty,
		Steps:      prof.GenSteps,
		Corners:    true,
		Exhaustive: true,
	}
	if trait.WeakCoverage {
		// Systematic under-coverage: a couple of short random walks,
		// no corner or exhaustive scenarios.
		cov = testbench.Coverage{Scenarios: 2, Steps: 4}
		if p.Kind == dataset.CMB {
			cov = testbench.Coverage{Scenarios: 3, Steps: 4}
		}
	}
	scenarios, err := testbench.GenerateScenarios(p, rng, cov)
	if err != nil {
		return nil, err
	}
	checkerSrc, plan, sticky, err := buildChecker(p, prof, trait, scenarios, rng, &a.stickies, &a.traces)
	if err != nil {
		return nil, err
	}
	tb := &testbench.Testbench{
		Problem:       p,
		Scenarios:     scenarios,
		CheckerSource: checkerSrc,
		CheckerTop:    p.Top,
		CheckerPlan:   plan,
		CheckerSticky: sticky,
	}
	tb.UseTraceStore(&a.traces)

	// Syntax auto-debug: most syntax errors are repaired by iterative
	// simulator-feedback debugging; only the residual probability
	// survives.
	pSyntax := prof.GenSyntaxCMB
	if p.Kind == dataset.SEQ {
		pSyntax = prof.GenSyntaxSEQ
	}
	if rng.Float64() < pSyntax {
		corruptTestbench(tb, rng)
		// A debug round was attempted and failed; charge its cost.
		acct.Charge(rng, prof.TokensGenIn/2, prof.TokensGenOut/2)
	}
	tb.TokensIn, tb.TokensOut = acct.In, acct.Out
	return tb, nil
}

// corruptTestbench damages one of the two tracks, modelling an LLM
// syntax error that survived (or never saw) self-debugging. A
// corrupted driver is the only one a generator makes explicit.
func corruptTestbench(tb *testbench.Testbench, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		tb.DriverSource = mutate.CorruptSyntax(tb.Driver(), rng)
	} else {
		tb.CheckerSource = mutate.CorruptSyntax(tb.CheckerSource, rng)
	}
}

// ForMethod returns the named generator ("Baseline" or "AutoBench").
func ForMethod(name string, prof *llm.Profile) (Generator, error) {
	switch name {
	case "Baseline":
		return &Baseline{Profile: prof}, nil
	case "AutoBench":
		return &AutoBench{Profile: prof}, nil
	default:
		return nil, fmt.Errorf("autobench: unknown generator %q", name)
	}
}
