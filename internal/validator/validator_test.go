package validator

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

func matrixFrom(rows []string) *Matrix {
	m := &Matrix{}
	for _, r := range rows {
		var row []bool
		for _, c := range r {
			row = append(row, c == 'g')
		}
		m.Rows = append(m.Rows, row)
	}
	return m
}

func TestJudgeAllGreenIsCorrect(t *testing.T) {
	m := matrixFrom([]string{"ggg", "ggg", "ggg"})
	for _, c := range Criteria() {
		rep := c.Judge(m)
		if !rep.Correct || len(rep.Wrong) != 0 {
			t.Errorf("%s: all-green judged wrong", c.Name)
		}
	}
}

func TestJudgeFullRedColumn(t *testing.T) {
	m := matrixFrom([]string{"rgg", "rgg", "rgg", "rgg"})
	for _, c := range Criteria() {
		rep := c.Judge(m)
		if rep.Correct {
			t.Errorf("%s: full red column not flagged", c.Name)
		}
		if len(rep.Wrong) != 1 || rep.Wrong[0] != 1 {
			t.Errorf("%s: wrong scenarios = %v", c.Name, rep.Wrong)
		}
	}
}

func TestJudgeThresholdSensitivity(t *testing.T) {
	// Column 1 red in 3/4 rows = 75%: flagged by 70% and 50%, not 100%.
	// No fully green row, so the green-row override stays out of play.
	m := matrixFrom([]string{"rg", "rg", "rr", "gg"})
	if Wrong100.Judge(m).Correct != true {
		t.Error("100%-wrong flagged a 75% column")
	}
	if Wrong70.Judge(m).Correct {
		t.Error("70%-wrong missed a 75% column")
	}
	if Wrong50.Judge(m).Correct {
		t.Error("50%-wrong missed a 75% column")
	}
}

func TestGreenRowOverride(t *testing.T) {
	// Column 1 is 70% red, but 30% of rows are fully green.
	rows := []string{"rg", "rg", "rg", "rg", "rg", "rg", "rg", "gg", "gg", "gg"}
	m := matrixFrom(rows)
	rep70 := Wrong70.Judge(m)
	if !rep70.Correct {
		t.Error("green-row override should accept the testbench")
	}
	rep100 := Wrong100.Judge(m)
	if !rep100.Correct {
		t.Error("100%-wrong has no full column here")
	}
}

func TestUncertainScenarios(t *testing.T) {
	// Column 1 is 50% red and column 2 25% red; exactly 25% of the
	// rows are fully green, which does NOT trigger the >25% override.
	m := matrixFrom([]string{"rg", "rr", "rg", "gg", "gg", "gr", "gr", "gr"})
	rep := Wrong70.Judge(m)
	if !rep.Correct {
		t.Fatal("sub-threshold columns should not flag")
	}
	if len(rep.Uncertain) != 2 {
		t.Errorf("uncertain = %v, want both columns", rep.Uncertain)
	}
	if len(rep.CorrectScenarios) != 0 {
		t.Errorf("correct = %v, want none", rep.CorrectScenarios)
	}
}

func TestGreenRowOverrideBoundary(t *testing.T) {
	// Exactly 25% fully green must not trigger (the paper says "more
	// than 25%").
	m := matrixFrom([]string{"rg", "rg", "rg", "gg"})
	rep := Wrong70.Judge(m)
	if rep.Correct {
		t.Error("75% red column with exactly 25% green rows should flag")
	}
}

func TestCriteriaMonotonicity(t *testing.T) {
	// Any scenario flagged by a stricter (higher) threshold must be
	// flagged by looser ones: wrong(100%) ⊆ wrong(70%) ⊆ wrong(50%).
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		m := &Matrix{}
		nr, ns := 2+rng.Intn(10), 1+rng.Intn(8)
		for i := 0; i < nr; i++ {
			row := make([]bool, ns)
			for j := range row {
				row[j] = rng.Intn(3) > 0
			}
			m.Rows = append(m.Rows, row)
		}
		w100 := Criterion{Name: "100", WrongFrac: 1.0}.Judge(m).Wrong
		w70 := Criterion{Name: "70", WrongFrac: 0.7}.Judge(m).Wrong
		w50 := Criterion{Name: "50", WrongFrac: 0.5}.Judge(m).Wrong
		if !subset(w100, w70) || !subset(w70, w50) {
			t.Fatalf("monotonicity violated: 100%%=%v 70%%=%v 50%%=%v\n%s", w100, w70, w50, m.Render())
		}
	}
}

func subset(a, b []int) bool {
	set := map[int]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func TestEmptyMatrixForcesReboot(t *testing.T) {
	rep := Wrong70.Judge(&Matrix{})
	if rep.Correct || !rep.SimulationBroken {
		t.Error("no-information matrix must be judged wrong")
	}
}

func TestRenderShowsDimensions(t *testing.T) {
	m := matrixFrom([]string{"rg", "gg"})
	s := m.Render()
	if !strings.Contains(s, "2 RTLs x 2 scenarios") || !strings.Contains(s, "#") {
		t.Errorf("render output unexpected:\n%s", s)
	}
}

func TestGenerateRTLGroupRegenerationRule(t *testing.T) {
	p := dataset.ByName("adder8")
	prof := llm.GPT4o()
	// Force a profile where almost everything is syntax-broken; the
	// regeneration rule caps at 8 attempts but must try.
	bad := *prof
	bad.RTLSyntax = 0.95
	rng := rand.New(rand.NewSource(4))
	var acct llm.Accountant
	group, err := GenerateRTLGroup(p, &bad, 10, rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 10 {
		t.Fatalf("group size = %d", len(group))
	}
	// Normal profile: at least half clean, with token charges.
	acct = llm.Accountant{}
	group, err = GenerateRTLGroup(p, prof, 20, rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	clean := 0
	for _, c := range group {
		if !c.SyntaxBad {
			clean++
		}
	}
	if clean*2 < len(group) {
		t.Errorf("regeneration rule violated: %d/%d clean", clean, len(group))
	}
	if acct.Calls < 20 {
		t.Errorf("token calls = %d, want >= 20", acct.Calls)
	}
}

func TestEndToEndValidation(t *testing.T) {
	p := dataset.ByName("cnt8")
	prof := llm.GPT4o()
	rng := rand.New(rand.NewSource(21))
	var acct llm.Accountant
	cands, err := GenerateRTLGroup(p, prof, 20, rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewGroup(context.Background(), p, cands)
	if err != nil {
		t.Fatal(err)
	}
	// Clean testbench: golden checker + decent scenarios.
	scs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 8, Steps: 10, Corners: true})
	if err != nil {
		t.Fatal(err)
	}
	clean := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
	rep, err := Wrong70.Validate(context.Background(), clean, group)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("clean testbench judged wrong; matrix:\n%s", rep.Matrix.Render())
	}

	// Faulty checker: inject an observable fault.
	golden, _ := p.Module()
	var faulty *testbench.Testbench
	for seed := int64(0); seed < 40; seed++ {
		mod, muts, plan := mutate.Mutate(golden, rand.New(rand.NewSource(seed)), 1)
		if len(muts) == 0 {
			continue
		}
		cand := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: verilog.PrintModule(mod), CheckerTop: p.Top, CheckerPlan: plan, CheckerSticky: -1}
		if res, err := cand.RunAgainstSourceContext(context.Background(), p.Source, p.Top); err == nil && !res.Pass() {
			faulty = cand
			break
		}
	}
	if faulty == nil {
		t.Fatal("could not build an observably faulty checker")
	}
	rep, err = Wrong70.Validate(context.Background(), faulty, group)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct {
		t.Errorf("faulty testbench judged correct; matrix:\n%s", rep.Matrix.Render())
	}
	if len(rep.Wrong) == 0 {
		t.Error("no wrong scenarios reported for faulty testbench")
	}
}

func TestSyntaxBrokenTestbench(t *testing.T) {
	p := dataset.ByName("mux2_w4")
	scs, _ := testbench.GenerateScenarios(p, rand.New(rand.NewSource(1)), testbench.Coverage{Scenarios: 2, Steps: 2})
	tb := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: "module broken(", CheckerTop: p.Top, CheckerSticky: -1}
	tb.DriverSource = "also broken ("
	rep, err := Wrong70.Validate(context.Background(), tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || !rep.SimulationBroken {
		t.Error("syntax-broken testbench must be judged wrong/broken")
	}
}

func TestCriterionByName(t *testing.T) {
	for _, name := range []string{"70%-wrong", "100%", "50%-wrong"} {
		if _, err := CriterionByName(name); err != nil {
			t.Errorf("CriterionByName(%q): %v", name, err)
		}
	}
	if _, err := CriterionByName("95%"); err == nil {
		t.Error("bogus criterion accepted")
	}
}
