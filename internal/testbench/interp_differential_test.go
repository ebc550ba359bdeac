package testbench_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/sim"
	"correctbench/internal/tbtest"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
)

// TestRTLGroupRunsMatchInterp is the per-candidate half of
// validator.TestCompiledEngineDifferential: for every problem, the
// same imperfect RTL group (mutated, correct and syntax-broken
// candidates) runs as lanes of one DUT set against the same golden
// testbench, and every candidate that elaborates must get exactly the
// outcome of the interleaved interpreter oracle (tbtest.RunLive): the
// same per-scenario verdicts, or the same error text.
func TestRTLGroupRunsMatchInterp(t *testing.T) {
	ctx := context.Background()
	prof := llm.GPT4o()
	for _, p := range dataset.All() {
		rng := rand.New(rand.NewSource(1234))
		var acct llm.Accountant
		cands, err := validator.GenerateRTLGroup(p, prof, 6, rng, &acct)
		if err != nil {
			t.Fatalf("%s: rtl group: %v", p.Name, err)
		}
		gtb, err := testbench.Golden(p, rng)
		if err != nil {
			t.Fatalf("%s: golden: %v", p.Name, err)
		}
		base, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		chk, err := sim.ElaborateSourceContext(ctx, gtb.CheckerSource, gtb.CheckerTop)
		if err != nil {
			t.Fatal(err)
		}
		var duts []*sim.Design
		for _, c := range cands {
			if d, err := sim.ElaborateSourceContext(ctx, c.Source, p.Top); err == nil {
				duts = append(duts, d)
			}
		}
		if len(duts) == 0 {
			t.Fatalf("%s: no elaborable candidates in the RTL group", p.Name)
		}
		outs, err := gtb.RunBatchContext(ctx, testbench.NewDUTSet(base, duts), false)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range duts {
			pass, err := tbtest.RunLive(ctx, p, d, chk, testbench.OracleScenarios(gtb.Scenarios))
			if (outs[i].Err != nil) != (err != nil) || err != nil && outs[i].Err.Error() != err.Error() {
				t.Errorf("%s candidate %d: batch err=%v, interp err=%v", p.Name, i, outs[i].Err, err)
				continue
			}
			if err == nil && !reflect.DeepEqual(outs[i].Res.ScenarioPass, pass) {
				t.Errorf("%s candidate %d: batch %v, interp %v", p.Name, i, outs[i].Res.ScenarioPass, pass)
			}
		}
	}
}
