package testbench_test

import (
	"context"
	"reflect"
	"testing"

	"correctbench/internal/autoeval"
	"correctbench/internal/core"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/rng"
	"correctbench/internal/testbench"
)

// cellResult is what one Algorithm-1 cell produces: its trace, its
// final testbench and that testbench's AutoEval grade.
type cellResult struct {
	trace                  core.Trace
	scenarios              []testbench.Scenario
	driver, checker, top   string
	grade                  autoeval.Grade
	tokensIn, tokensOut    int
	checkerSticky, planLen int
}

// TestStoreDifferentialCoreRun pins results on and off the trace store:
// for every problem, core.RunContext — generation, validation,
// correction and reboots — and the AutoEval grade of its testbench must
// be identical whether every testbench of the cell shares the
// generator's store or each run gets a fresh one.
func TestStoreDifferentialCoreRun(t *testing.T) {
	ctx := context.Background()
	opt := core.DefaultOptions(llm.GPT4o())
	eval := autoeval.NewEvaluator(42)
	run := func(p *dataset.Problem) cellResult {
		t.Helper()
		r, err := core.RunContext(ctx, p, opt, rng.New(42).Child("store-differential", p.Name).Rand())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		g, err := eval.EvaluateContext(ctx, r.Testbench)
		if err != nil {
			t.Fatalf("%s: grade: %v", p.Name, err)
		}
		tb := r.Testbench
		return cellResult{
			trace: *r.Trace, scenarios: tb.Scenarios, driver: tb.Driver(), checker: tb.CheckerSource, top: tb.CheckerTop,
			grade: g, tokensIn: tb.TokensIn, tokensOut: tb.TokensOut, checkerSticky: tb.CheckerSticky, planLen: len(tb.CheckerPlan.Sites),
		}
	}
	reboots, corrections := 0, 0
	for _, p := range dataset.All() {
		on := run(p)
		restore := testbench.FreshStorePerRun()
		off := run(p)
		restore()
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: the cell differs with a fresh store per run\n store: %+v\n fresh: %+v", p.Name, on.trace, off.trace)
		}
		reboots += on.trace.Reboots
		corrections += on.trace.Corrections
	}
	if reboots == 0 || corrections == 0 {
		t.Errorf("the grid made %d reboots and %d corrections; the differential covers neither path", reboots, corrections)
	}
}
