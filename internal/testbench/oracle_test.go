package testbench

import (
	"context"
	"fmt"

	"correctbench/internal/sim"
	"correctbench/internal/tbtest"
)

// runLive runs the interleaved interpreter oracle (tbtest.RunLive) of
// dutDesign against tb's checker: the reference every batched run must
// reproduce (TestBatchRunMatchesScalar, TestBatchRunWholesaleFallback).
func (tb *Testbench) runLive(ctx context.Context, dutDesign *sim.Design) (*RunResult, error) {
	checkerDesign, err := tb.checkerDesignContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	pass, err := tbtest.RunLive(ctx, tb.Problem, dutDesign, checkerDesign, OracleScenarios(tb.Scenarios))
	if err != nil {
		return nil, err
	}
	return &RunResult{ScenarioPass: pass}, nil
}

// OracleScenarios is scs as the oracle's stimulus, each step driven in
// sorted port-name order.
func OracleScenarios(scs []Scenario) []tbtest.Scenario {
	out := make([]tbtest.Scenario, len(scs))
	for i, sc := range scs {
		out[i].Index = sc.Index
		for _, st := range sc.Steps {
			out[i].Steps = append(out[i].Steps, tbtest.Step{Names: st.SortedNames(), Inputs: st.Inputs})
		}
	}
	return out
}
