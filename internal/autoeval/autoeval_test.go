package autoeval

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
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

// TestBatchGradingMatchesInterp pins AutoEval to the reference
// interpreter end to end: on five problems, the fixture's mutant count
// and the grades of the golden testbench and of a thin one-scenario
// probe form a transcript whose SHA-256 must equal interpGradesSHA256,
// recorded when every simulation ran on the interpreter.
//
// The digest was recorded at commit 37e86f6, the last commit with a
// process-wide engine switch, by running this test's transcript loop
// there with the switch set to the interpreter:
//
//	go test -count=1 -v -run TestBatchGradingMatchesInterp ./internal/autoeval
//
// Since the switch is gone, a later commit cannot re-derive these
// digests from the interpreter. A change that legitimately alters a
// grade or the fixture must first pass the live per-run interpreter
// checks on the new outputs: testbench.TestRTLGroupRunsMatchInterp,
// TestBatchRunMatchesScalar and TestScenarioRecordingIsIndependent
// (each lane against tbtest.RunLive), and validator's
// TestBatchedRSMatrixDifferential (matrices against oracleMatrix).
// Only then re-record the digest from the batch engine with the
// command above; from then on it pins the batch engine's output, not
// the interpreter's.
func TestBatchGradingMatchesInterp(t *testing.T) {
	const interpGradesSHA256 = "07249239d3206c4927aa667bb08cdea73fb4960faa820e0e3d02ac22ac76d91f"
	var transcript strings.Builder
	rng := rand.New(rand.NewSource(17))
	for _, name := range []string{"adder8", "mux4_w4", "cnt8", "det101", "fifo2"} {
		p := dataset.ByName(name)
		e := NewEvaluator(7)
		f, err := e.fixtureFor(p)
		if err != nil {
			t.Fatalf("%s fixture: %v", name, err)
		}
		thinScs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 1, Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		thin := testbench.Testbench{
			Problem: p, Scenarios: thinScs,
			CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1,
		}
		gtb, err := e.GoldenTestbench(p)
		if err != nil {
			t.Fatal(err)
		}
		gG, err := e.EvaluateContext(context.Background(), gtb)
		if err != nil {
			t.Fatalf("%s/golden: %v", name, err)
		}
		gT, err := e.EvaluateContext(context.Background(), &thin)
		if err != nil {
			t.Fatalf("%s/thin: %v", name, err)
		}
		fmt.Fprintf(&transcript, "%s mutants=%d golden=%s thin=%s\n", name, len(f.mutantDesigns), gG, gT)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(transcript.String()))); got != interpGradesSHA256 {
		t.Errorf("grades differ from the interpreter's: digest %s, want %s\n%s", got, interpGradesSHA256, transcript.String())
	}
}

// TestIdentityCandidateIsTheGolden: a candidate that prints as the
// golden resolves to the golden design in the fixture's memo, so it is
// judged not killed without taking a lane, and no fixture keeps the
// golden design as a mutant.
func TestIdentityCandidateIsTheGolden(t *testing.T) {
	p := &dataset.Problem{Name: "same_branches", Kind: dataset.CMB, Top: "m",
		Source: "module m(input c, input a, output y);\n    assign y = c ? a : a;\nendmodule\n"}
	golden, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	design, err := p.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	// Swapping the branches of c ? a : a is an identity mutation.
	var identity *verilog.Module
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200 && identity == nil; i++ {
		if mut, muts, _ := mutate.Mutate(golden, rng, 1); len(muts) == 1 && muts[0].Kind == mutate.TernarySwap {
			identity = mut
		}
	}
	if identity == nil || verilog.PrintModule(identity) != verilog.PrintModule(golden) {
		t.Fatal("no branch swap drawn that prints as the golden")
	}
	negated, err := verilog.Parse("module m(input c, input a, output y);\n    assign y = c ? a : ~a;\nendmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	candidates := []*verilog.Module{identity, negated.Modules[0]}

	gtb, err := testbench.Golden(p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	lanes := newLaneJudge(golden, design, p.Top)
	if pass, fail := lanes.run(gtb, candidates); fmt.Sprint(pass, fail) != "[true false] [false true]" {
		t.Errorf("golden testbench: pass %v, fail %v; want the identity passed and the negation killed", pass, fail)
	}
	// A checker that does not parse errors every lane, so only a
	// candidate that takes no lane can pass.
	broken := gtb.WithChecker("module m(", gtb.CheckerPlan, -1)
	if pass, fail := lanes.run(broken, candidates); fmt.Sprint(pass, fail) != "[true false] [false false]" {
		t.Errorf("broken checker: pass %v, fail %v; want only the identity passed", pass, fail)
	}

	e := NewEvaluator(1)
	for _, p := range dataset.All() {
		f, err := e.fixtureFor(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		d, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range f.mutantDesigns {
			if m == d {
				t.Errorf("%s: mutant %d is the golden design", p.Name, i)
			}
		}
	}
}
