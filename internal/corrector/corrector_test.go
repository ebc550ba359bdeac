package corrector

import (
	"context"
	"math/rand"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
	"correctbench/internal/verilog"
)

// faultyTB builds a testbench for cnt8 with nFaults injected checker
// faults.
func faultyTB(t *testing.T, nFaults int, seed int64) *testbench.Testbench {
	t.Helper()
	p := dataset.ByName("cnt8")
	golden, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	scs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 6, Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	mod, _, plan := mutate.Mutate(golden, rng, nFaults)
	tb := &testbench.Testbench{
		Problem: p, Scenarios: scs,
		CheckerSource: verilog.PrintModule(mod), CheckerTop: p.Top,
		CheckerPlan: plan, CheckerSticky: -1,
	}
	return tb
}

func report(wrong []int) *validator.Report {
	return &validator.Report{Correct: false, Wrong: wrong}
}

func TestCorrectRepairsWithGoodBugInfo(t *testing.T) {
	prof := llm.GPT4o()
	prof.LocalizeProb, prof.FixProb, prof.RegressProb = 1, 1, 0
	c := &Corrector{Profile: prof}
	rng := rand.New(rand.NewSource(1))
	var acct llm.Accountant
	tb := faultyTB(t, 2, 11)
	fixed, out := c.Correct(tb, report([]int{1, 3}), rng, &acct)
	if !out.Attempted || out.Repaired != 2 || out.Regressed != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if len(fixed.CheckerPlan.Sites) != 0 {
		t.Errorf("plan not emptied: %v", fixed.CheckerPlan.Sites)
	}
	// A fully repaired checker matches golden behaviour.
	p := fixed.Problem
	res, err := fixed.RunAgainstSourceContext(context.Background(), p.Source, p.Top)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Error("repaired checker still rejects golden RTL")
	}
	if acct.Calls != 1 {
		t.Errorf("token calls = %d", acct.Calls)
	}
}

func TestCorrectDoesNotMutateInput(t *testing.T) {
	prof := llm.GPT4o()
	prof.LocalizeProb, prof.FixProb = 1, 1
	c := &Corrector{Profile: prof}
	rng := rand.New(rand.NewSource(2))
	var acct llm.Accountant
	tb := faultyTB(t, 1, 12)
	before := tb.CheckerSource
	planLen := len(tb.CheckerPlan.Sites)
	c.Correct(tb, report([]int{2}), rng, &acct)
	if tb.CheckerSource != before || len(tb.CheckerPlan.Sites) != planLen {
		t.Error("corrector mutated its input testbench")
	}
}

func TestVagueBugInfoHurtsLocalization(t *testing.T) {
	prof := llm.GPT4o()
	prof.FixProb, prof.RegressProb = 1, 0
	prof.LocalizeProb = 0.8
	c := &Corrector{Profile: prof}
	repairsPrecise, repairsVague := 0, 0
	const n = 400
	rngP := rand.New(rand.NewSource(3))
	rngV := rand.New(rand.NewSource(3))
	var acct llm.Accountant
	tb := faultyTB(t, 1, 13)
	for i := 0; i < n; i++ {
		_, out := c.Correct(tb, report([]int{1}), rngP, &acct)
		repairsPrecise += out.Repaired
		_, out = c.Correct(tb, report(nil), rngV, &acct)
		repairsVague += out.Repaired
	}
	if repairsVague*2 >= repairsPrecise {
		t.Errorf("vague info should repair far less: precise=%d vague=%d", repairsPrecise, repairsVague)
	}
}

func TestStickyFaultResistsCorrection(t *testing.T) {
	prof := llm.GPT4o()
	prof.LocalizeProb, prof.FixProb, prof.RegressProb = 1, 1, 0
	prof.StickyFixProb = 0
	c := &Corrector{Profile: prof}
	rng := rand.New(rand.NewSource(4))
	var acct llm.Accountant
	tb := faultyTB(t, 1, 14)
	tb.CheckerSticky = tb.CheckerPlan.Sites[0]
	fixed, out := c.Correct(tb, report([]int{1}), rng, &acct)
	if out.Repaired != 0 {
		t.Errorf("sticky fault was repaired: %+v", out)
	}
	if fixed.CheckerSticky != tb.CheckerSticky {
		t.Error("sticky site lost")
	}
}

func TestRegressionIntroducesFault(t *testing.T) {
	prof := llm.GPT4o()
	prof.LocalizeProb, prof.FixProb = 0, 0
	prof.RegressProb = 1
	c := &Corrector{Profile: prof}
	rng := rand.New(rand.NewSource(5))
	var acct llm.Accountant
	tb := faultyTB(t, 1, 15)
	fixed, out := c.Correct(tb, report([]int{1}), rng, &acct)
	if out.Regressed != 1 {
		t.Fatalf("regression not applied: %+v", out)
	}
	if len(fixed.CheckerPlan.Sites) < len(tb.CheckerPlan.Sites) {
		t.Error("plan shrank despite regression")
	}
}

func TestBrokenTestbenchNotAttempted(t *testing.T) {
	c := &Corrector{Profile: llm.GPT4o()}
	rng := rand.New(rand.NewSource(6))
	var acct llm.Accountant
	tb := faultyTB(t, 1, 16)
	tb.DriverSource = "not verilog ("
	rep := &validator.Report{Correct: false, SimulationBroken: true}
	fixed, out := c.Correct(tb, rep, rng, &acct)
	if out.Attempted {
		t.Error("corrector attempted a broken testbench")
	}
	if fixed != tb {
		t.Error("broken testbench should be returned unchanged")
	}
	if acct.Calls != 0 {
		t.Error("tokens charged for a non-attempt")
	}
}
