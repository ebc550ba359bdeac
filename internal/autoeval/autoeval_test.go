package autoeval

import (
	"context"
	"math/rand"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

func TestDefinitionsComplete(t *testing.T) {
	defs := Definitions()
	for _, g := range []Grade{GradeFailed, GradeEval0, GradeEval1, GradeEval2} {
		if defs[g] == "" {
			t.Errorf("missing definition for %s", g)
		}
	}
	if GradeEval2.String() != "Eval2" || GradeFailed.String() != "Failed" {
		t.Error("grade names wrong")
	}
}

func TestGoldenTestbenchGetsEval2(t *testing.T) {
	e := NewEvaluator(1)
	for _, name := range []string{"adder8", "cnt8", "det101", "mux4_w4"} {
		p := dataset.ByName(name)
		tb, err := e.GoldenTestbench(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := e.EvaluateContext(context.Background(), tb)
		if err != nil {
			t.Fatal(err)
		}
		if g != GradeEval2 {
			t.Errorf("%s: golden TB graded %s", name, g)
		}
	}
}

func TestSyntaxBrokenIsFailed(t *testing.T) {
	e := NewEvaluator(2)
	p := dataset.ByName("adder8")
	tb, err := e.GoldenTestbench(p)
	if err != nil {
		t.Fatal(err)
	}
	broken := tb.WithChecker(tb.CheckerSource, tb.CheckerPlan, tb.CheckerSticky)
	broken.DriverSource = "module ("
	g, err := e.EvaluateContext(context.Background(), broken)
	if err != nil || g != GradeFailed {
		t.Errorf("grade = %s, %v; want Failed", g, err)
	}
}

func TestFaultyCheckerStopsAtEval0(t *testing.T) {
	e := NewEvaluator(3)
	p := dataset.ByName("cnt8")
	golden, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	gtb, err := e.GoldenTestbench(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find an observable fault.
	for seed := int64(0); seed < 40; seed++ {
		mod, muts, _ := mutate.Mutate(golden, rand.New(rand.NewSource(seed)), 1)
		if len(muts) == 0 {
			continue
		}
		tb := &testbench.Testbench{
			Problem: p, Scenarios: gtb.Scenarios,
			CheckerSource: verilog.PrintModule(mod), CheckerTop: p.Top, CheckerSticky: -1,
		}
		res, err := tb.RunAgainstSourceContext(context.Background(), p.Source, p.Top)
		if err != nil || res.Pass() {
			continue
		}
		g, err := e.EvaluateContext(context.Background(), tb)
		if err != nil {
			t.Fatal(err)
		}
		if g != GradeEval0 {
			t.Errorf("faulty checker graded %s, want Eval0", g)
		}
		return
	}
	t.Fatal("no observable fault found")
}

func TestThinTestbenchMayMissEval2(t *testing.T) {
	// A clean checker with almost no stimuli passes Eval1 but should
	// fail Eval2 on at least some problems (coverage discrimination).
	e := NewEvaluator(4)
	rng := rand.New(rand.NewSource(9))
	missed := 0
	for _, p := range dataset.OfKind(dataset.SEQ) {
		scs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 1, Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		tb := &testbench.Testbench{
			Problem: p, Scenarios: scs,
			CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1,
		}
		g, err := e.EvaluateContext(context.Background(), tb)
		if err != nil {
			t.Fatal(err)
		}
		if g == GradeEval1 {
			missed++
		}
		if g < GradeEval1 {
			t.Errorf("%s: clean thin TB graded %s", p.Name, g)
		}
	}
	if missed < 10 {
		t.Errorf("thin TBs failed Eval2 on only %d SEQ problems; Eval2 has no discriminating power", missed)
	}
}

func TestFixtureCachingIsStable(t *testing.T) {
	e := NewEvaluator(5)
	p := dataset.ByName("alu4")
	f1, err := e.fixtureFor(p)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := e.fixtureFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("fixture not cached")
	}
	if len(f1.mutantDesigns) == 0 {
		t.Error("no mutants in fixture")
	}
}

// TestBatchGradingMatchesInterp pins the engine-independence of
// AutoEval end to end: an evaluator whose fixtures and grades run on
// the batched engine must produce the same fixture and the same grades
// as one running every simulation on the reference interpreter.
func TestBatchGradingMatchesInterp(t *testing.T) {
	buildUnder := func(eng sim.Engine, seed int64, p *dataset.Problem) (*Evaluator, *fixture) {
		old := sim.DefaultEngine
		sim.DefaultEngine = eng
		defer func() { sim.DefaultEngine = old }()
		e := NewEvaluator(seed)
		f, err := e.fixtureFor(p)
		if err != nil {
			t.Fatalf("fixture under %v: %v", eng, err)
		}
		return e, f
	}
	gradeUnder := func(eng sim.Engine, e *Evaluator, tb *testbench.Testbench) (Grade, error) {
		old := sim.DefaultEngine
		sim.DefaultEngine = eng
		defer func() { sim.DefaultEngine = old }()
		return e.EvaluateContext(context.Background(), tb)
	}
	rng := rand.New(rand.NewSource(17))
	for _, name := range []string{"adder8", "mux4_w4", "cnt8", "det101", "fifo2"} {
		p := dataset.ByName(name)
		eI, fI := buildUnder(sim.EngineInterp, 7, p)
		eB, fB := buildUnder(sim.EngineBatched, 7, p)

		if len(fI.mutantDesigns) != len(fB.mutantDesigns) {
			t.Fatalf("%s: fixture sizes differ: %d interp vs %d batched", name, len(fI.mutantDesigns), len(fB.mutantDesigns))
		}

		// Grade a spread of testbenches under both: the golden one and
		// a thin one-scenario probe.
		thinScs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 1, Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		thin := &testbench.Testbench{
			Problem: p, Scenarios: thinScs,
			CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1,
		}
		for _, tc := range []struct {
			label string
			mk    func(e *Evaluator) *testbench.Testbench
		}{
			{"golden", func(e *Evaluator) *testbench.Testbench {
				tb, err := e.GoldenTestbench(p)
				if err != nil {
					t.Fatal(err)
				}
				return tb
			}},
			{"thin", func(*Evaluator) *testbench.Testbench { return thin }},
		} {
			tbI := *tc.mk(eI)
			tbB := *tc.mk(eB)
			gI, err := gradeUnder(sim.EngineInterp, eI, &tbI)
			if err != nil {
				t.Fatalf("%s/%s interp: %v", name, tc.label, err)
			}
			gB, err := gradeUnder(sim.EngineBatched, eB, &tbB)
			if err != nil {
				t.Fatalf("%s/%s batched: %v", name, tc.label, err)
			}
			if gI != gB {
				t.Errorf("%s/%s: grade diverged: interp %s vs batched %s", name, tc.label, gI, gB)
			}
		}
	}
}
