// Package core implements CorrectBench's top-level workflow
// (Algorithm 1 of the paper): an action agent that validates each
// generated testbench, corrects it with bug information while the
// correction budget I_C lasts, reboots the whole generation while the
// reboot budget I_R lasts, and otherwise passes the testbench through.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"correctbench/internal/autobench"
	"correctbench/internal/corrector"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
)

// Action is the agent's decision after a validation round.
type Action string

// The three actions of Algorithm 1.
const (
	ActionCorrecting Action = "Correcting"
	ActionRebooting  Action = "Rebooting"
	ActionPass       Action = "Pass"
)

// Options configures a CorrectBench run.
type Options struct {
	Profile   *llm.Profile
	Criterion validator.Criterion
	// MaxCorrections is I_C^max (paper: 3).
	MaxCorrections int
	// MaxReboots is I_R^max (paper: 10).
	MaxReboots int
	// NR is the imperfect-RTL group size (paper: 20).
	NR int
}

// DefaultOptions returns the paper's experimental configuration for a
// profile.
func DefaultOptions(prof *llm.Profile) Options {
	return Options{
		Profile:        prof,
		Criterion:      validator.Wrong70,
		MaxCorrections: 3,
		MaxReboots:     10,
		NR:             20,
	}
}

// Event is one step of the agent's trace.
type Event struct {
	Action Action
	// ValidatorSaysCorrect is the verdict that led to the action.
	ValidatorSaysCorrect bool
	WrongScenarios       []int
}

// Trace records what happened during one task, used for the Table III
// attribution and Fig. 6(b) token accounting.
type Trace struct {
	Events      []Event
	Corrections int
	Reboots     int
	// ValidatorIntervened is true when at least one validation round
	// rejected a testbench (so the validator changed the outcome).
	ValidatorIntervened bool
	// CorrectorShaped is true when the final testbench carries at
	// least one surviving correction (a repair applied after the last
	// reboot).
	CorrectorShaped bool
	// FinalValidated is true when the final testbench was passed
	// because the validator said correct (not budget exhaustion).
	FinalValidated bool
	Tokens         llm.Accountant
}

// Result bundles the final testbench with its trace.
type Result struct {
	Testbench *testbench.Testbench
	Trace     *Trace
}

// RunContext executes Algorithm 1 for one problem. The context is
// checked at every agent-loop iteration and plumbed into the
// validator's simulations, so a cancelled task stops within one
// simulation step batch and returns the context's error.
func RunContext(ctx context.Context, p *dataset.Problem, opt Options, rng *rand.Rand) (*Result, error) {
	if opt.Profile == nil {
		return nil, fmt.Errorf("core: options missing LLM profile")
	}
	gen := &autobench.AutoBench{Profile: opt.Profile}
	corr := &corrector.Corrector{Profile: opt.Profile}
	trace := &Trace{}
	acct := &trace.Tokens

	// Per-task systematic traits: the same misconception recurs across
	// regenerations of the same prompt.
	trait := opt.Profile.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, rng)

	// The imperfect-RTL group is generated once per task and reused
	// across validation rounds, as in the paper's experiments; it is
	// elaborated and batch-compiled once here.
	cands, err := validator.GenerateRTLGroup(p, opt.Profile, opt.NR, rng, acct)
	if err != nil {
		return nil, err
	}
	group, err := validator.NewGroup(ctx, p, cands)
	if err != nil {
		return nil, err
	}

	tb, err := gen.Generate(p, trait, rng, acct)
	if err != nil {
		return nil, err
	}
	correctionsSinceReboot := 0
	ic, ir := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := opt.Criterion.Validate(ctx, tb, group)
		if err != nil {
			return nil, err
		}
		if !rep.Correct {
			trace.ValidatorIntervened = true
		}
		switch {
		case !rep.Correct && ic < opt.MaxCorrections:
			trace.Events = append(trace.Events, Event{
				Action: ActionCorrecting, WrongScenarios: rep.Wrong,
			})
			ic++
			trace.Corrections++
			fixed, out := corr.Correct(tb, rep, rng, acct)
			if out.Repaired > 0 {
				correctionsSinceReboot++
			}
			tb = fixed

		case !rep.Correct && ir < opt.MaxReboots:
			trace.Events = append(trace.Events, Event{Action: ActionRebooting})
			ir++
			trace.Reboots++
			ic = 0
			correctionsSinceReboot = 0
			tb, err = gen.Generate(p, trait, rng, acct)
			if err != nil {
				return nil, err
			}

		default:
			trace.Events = append(trace.Events, Event{
				Action: ActionPass, ValidatorSaysCorrect: rep.Correct,
			})
			trace.FinalValidated = rep.Correct
			trace.CorrectorShaped = rep.Correct && correctionsSinceReboot > 0
			return &Result{Testbench: tb, Trace: trace}, nil
		}
	}
}
