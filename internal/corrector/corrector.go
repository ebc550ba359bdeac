// Package corrector models CorrectBench's two-stage conversational
// self-corrector (Section III-C). Given the validator's bug
// information (wrong/correct/uncertain scenario indexes), stage 1
// guides the LLM through why/where/how reasoning to attribute the
// failing scenarios to checker code, and stage 2 rewrites the faulty
// part under formatting rules.
//
// Substitution note: the real corrector's success depends on LLM
// reasoning over its own checker code. Here the checker's injected
// faults are recorded in the testbench's mutate.Plan, and the model is
// parameterized per llm.Profile: each fault is localized with
// LocalizeProb (boosted by precise bug information, degraded without
// it), a localized fault is repaired with FixProb, and each correction
// round introduces a fresh fault with RegressProb — reproducing the
// corrector's observed statistics (34.33% of validated passes needing
// correction, SEQ benefiting more than CMB).
package corrector

import (
	"math/rand"

	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
	"correctbench/internal/verilog"
)

// Corrector repairs testbenches using validator bug reports.
type Corrector struct {
	Profile *llm.Profile
}

// Outcome describes what a correction round did.
type Outcome struct {
	// Attempted is false when the corrector had nothing to work with
	// (syntax-broken testbench or no bug information at all).
	Attempted bool
	// Repaired counts faults removed from the checker.
	Repaired int
	// Regressed counts fresh faults introduced.
	Regressed int
}

// Correct performs one correction round and returns the corrected
// testbench (a new artifact; the input is never modified). Token usage
// for the two conversation stages is charged to acct.
func (c *Corrector) Correct(tb *testbench.Testbench, rep *validator.Report, rng *rand.Rand, acct *llm.Accountant) (*testbench.Testbench, Outcome) {
	prof := c.Profile
	out := Outcome{}

	// A syntax-broken testbench gives the corrector no scenario
	// information to reason over; the action agent will reboot.
	if rep.SimulationBroken || !tb.SyntaxOK() {
		return tb, out
	}
	out.Attempted = true
	acct.Charge(rng, prof.TokensCorrectIn+len(tb.CheckerSource)/3, prof.TokensCorrectOut)

	golden, err := tb.Problem.Module()
	if err != nil {
		return tb, out
	}

	// Stage 1 (reasoning): attribute faults. Precise wrong-scenario
	// indexes make localization much more likely than vague
	// uncertain-only reports.
	localize := prof.LocalizeProb
	if len(rep.Wrong) == 0 {
		localize = prof.LocalizeProb / 4
	}

	var plan mutate.Plan = tb.CheckerPlan
	for _, site := range append([]int(nil), plan.Sites...) {
		if site == tb.CheckerSticky {
			// The systematic misconception: the LLM defends its own
			// wrong understanding of the spec and almost never repairs
			// this fault.
			if rng.Float64() < prof.StickyFixProb {
				plan = plan.Without(site)
				out.Repaired++
			}
			continue
		}
		if rng.Float64() >= localize {
			continue
		}
		// Stage 2 (correction): rewrite the located fault.
		if rng.Float64() < prof.FixProb {
			plan = plan.Without(site)
			out.Repaired++
		}
	}
	mod, _, n := plan.Build(golden)
	// The rewrite may damage previously correct logic.
	if rng.Float64() < prof.RegressProb && n > 0 {
		sites := len(plan.Sites)
		plan = plan.With(rng.Intn(n))
		out.Regressed++
		if len(plan.Sites) > sites {
			mod, _, _ = plan.Build(golden)
		}
	}
	sticky := tb.CheckerSticky
	if !containsSite(plan, sticky) {
		sticky = -1
	}
	return tb.WithChecker(verilog.PrintModule(mod), plan, sticky), out
}

func containsSite(p mutate.Plan, site int) bool {
	for _, s := range p.Sites {
		if s == site {
			return true
		}
	}
	return false
}
