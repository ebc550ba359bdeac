// Package correctbench is a from-scratch Go reproduction of
// "CorrectBench: Automatic Testbench Generation with Functional
// Self-Correction using LLMs for HDL Design" (Qiu et al., DATE 2025).
//
// It bundles everything the paper's system needs, implemented on the
// standard library only:
//
//   - a Verilog-2005 subset front end and four-state event-driven
//     simulator (the Icarus Verilog stand-in),
//   - the 156-problem CMB/SEQ benchmark dataset,
//   - a seeded stochastic model of the evaluated LLMs,
//   - the AutoBench and Baseline testbench generators,
//   - the RS-matrix self-validator and two-stage self-corrector,
//   - Algorithm 1's action agent, and
//   - the AutoEval grading pipeline and experiment harness that
//     regenerate every table and figure of the paper.
//
// The public API is job-oriented. A Client owns the caches shared
// across runs; Submit starts an experiment job whose typed events
// stream in canonical order; Wait, Cancel and Snapshot complete the
// lifecycle:
//
//	c := correctbench.NewClient()
//	job, err := c.Submit(ctx, correctbench.ExperimentSpec{Reps: 5, Seed: 42})
//	for ev := range job.Events() { ... }
//	exp, err := job.Wait(ctx)
//	fmt.Println(exp.Table1())
//
// Single tasks run through the same client:
//
//	res, err := c.GenerateTestbench(ctx, "shift18", correctbench.TaskSpec{Seed: 1})
//	grade, err := c.Grade(ctx, res.Testbench, 1)
//
// cmd/correctbenchd serves the identical contract over HTTP (NDJSON
// event streams).
package correctbench

import (
	"fmt"
	"slices"

	"correctbench/internal/autoeval"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
	"correctbench/internal/llm"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
)

// Problem re-exports the dataset task type.
type Problem = dataset.Problem

// Testbench re-exports the hybrid testbench artifact.
type Testbench = testbench.Testbench

// Grade re-exports AutoEval's grade.
type GradeLevel = autoeval.Grade

// Grade levels.
const (
	Failed = autoeval.GradeFailed
	Eval0  = autoeval.GradeEval0
	Eval1  = autoeval.GradeEval1
	Eval2  = autoeval.GradeEval2
)

// Problems returns the 156-task dataset.
func Problems() []*Problem { return dataset.All() }

// ProblemByName looks a task up by name (nil when absent).
func ProblemByName(name string) *Problem { return dataset.ByName(name) }

// TaskResult is the outcome of one CorrectBench task.
type TaskResult struct {
	Testbench *Testbench
	// Validated reports whether the final testbench was passed because
	// the self-validator accepted it (as opposed to budget exhaustion).
	Validated bool
	// Corrections and Reboots count the agent's actions.
	Corrections, Reboots int
	// TokensIn/TokensOut are the simulated LLM token costs.
	TokensIn, TokensOut int
}

// NewProblem registers nothing globally; it simply builds a custom
// problem value usable with Client.GenerateTestbenchFor. kind is
// "CMB" or "SEQ"; for SEQ problems clock must be "clk" and reset names
// the synchronous reset input ("" when the design is flushed by a
// load). A SEQ golden top without a clk input, and a reset that is not
// an input port of the golden top, are errors.
func NewProblem(name, kind, spec, goldenSource, reset string, difficulty int) (*Problem, error) {
	k := dataset.CMB
	switch kind {
	case "CMB":
	case "SEQ":
		k = dataset.SEQ
	default:
		return nil, fmt.Errorf("correctbench: kind must be CMB or SEQ, got %q", kind)
	}
	p := &Problem{
		Name: name, Kind: k, Spec: spec, Source: goldenSource, Top: name,
		Difficulty: difficulty, Reset: reset,
	}
	if k == dataset.SEQ {
		p.Clock = "clk"
	}
	d, err := p.Elaborate()
	if err != nil {
		return nil, fmt.Errorf("correctbench: golden source invalid: %w", err)
	}
	isInput := func(port string) bool {
		return slices.ContainsFunc(d.Ports, func(pt sim.Port) bool { return pt.Dir == sim.In && pt.Name == port })
	}
	if p.Clock != "" && !isInput(p.Clock) {
		return nil, fmt.Errorf("correctbench: SEQ golden %s has no clock input %q", name, p.Clock)
	}
	if reset != "" && !isInput(reset) {
		return nil, fmt.Errorf("correctbench: reset %q is not an input port of %s", reset, name)
	}
	return p, nil
}

// Experiment wraps harness results with the formatting helpers.
type Experiment struct {
	*harness.Results
}

// LLMNames lists the available model profiles. The order is stable
// and documented — gpt-4o, claude-3.5-sonnet, gpt-4o-mini (the
// paper's column order) — so responses built from it (GET /v1/llms)
// are byte-stable for caching. Every returned name round-trips
// through the LLM field of TaskSpec and ExperimentSpec.
func LLMNames() []string {
	var out []string
	for _, p := range llm.Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// CriterionNames lists the available validation criteria. The order
// is stable and documented — 100%-wrong, 70%-wrong, 50%-wrong (the
// paper's study order) — so responses built from it (GET
// /v1/criteria) are byte-stable for caching. Every returned name
// round-trips through the Criterion field of TaskSpec and
// ExperimentSpec.
func CriterionNames() []string {
	var out []string
	for _, c := range validator.Criteria() {
		out = append(out, c.Name)
	}
	return out
}
