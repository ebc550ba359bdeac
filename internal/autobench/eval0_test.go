package autobench

import (
	"math/rand"
	"testing"

	"correctbench/internal/corrector"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
	"correctbench/internal/verilog"
)

// freshSyntaxOK is the unmemoized Eval0 reference: parse both tracks,
// the driver as Driver() renders it.
func freshSyntaxOK(tb *testbench.Testbench) bool {
	if _, err := verilog.Parse(tb.Driver()); err != nil {
		return false
	}
	_, err := verilog.Parse(tb.CheckerSource)
	return err == nil
}

// TestSyntaxOKMatchesFreshParse is the Eval0 differential for the
// memoized SyntaxOK: on every problem, for the golden testbench and
// for AutoBench and Baseline testbenches, with each track corrupted in
// place after the memo was warmed (as corruptTestbench corrupts one
// track), restored, and rewritten by the corrector, the memoized
// verdict must equal a fresh parse of both tracks.
func TestSyntaxOKMatchesFreshParse(t *testing.T) {
	prof := llm.GPT4o()
	corr := &corrector.Corrector{Profile: prof}
	gens := []Generator{&AutoBench{Profile: prof}, &Baseline{Profile: prof}}
	for i, p := range dataset.All() {
		gold, err := testbench.Golden(p, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatalf("%s: golden: %v", p.Name, err)
		}
		if got, want := gold.SyntaxOK(), freshSyntaxOK(gold); got != want {
			t.Errorf("%s golden: SyntaxOK = %v, fresh parse = %v", p.Name, got, want)
		}
		for j, gen := range gens {
			rng := rand.New(rand.NewSource(int64(2*i + j)))
			var acct llm.Accountant
			tb, err := gen.Generate(p, prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, rng), rng, &acct)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, gen.Name(), err)
			}
			check := func(label string, tb *testbench.Testbench) {
				t.Helper()
				if got, want := tb.SyntaxOK(), freshSyntaxOK(tb); got != want {
					t.Errorf("%s/%s %s: SyntaxOK = %v, fresh parse = %v", p.Name, gen.Name(), label, got, want)
				}
			}
			driver, checker := tb.DriverSource, tb.CheckerSource
			check("generated", tb)
			tb.DriverSource = mutate.CorruptSyntax(tb.Driver(), rng)
			check("corrupt driver", tb)
			tb.DriverSource = driver
			check("restored driver", tb)
			tb.CheckerSource = mutate.CorruptSyntax(checker, rng)
			check("corrupt checker", tb)
			tb.CheckerSource = checker
			check("restored checker", tb)

			fixed, _ := corr.Correct(tb, &validator.Report{Wrong: []int{1}}, rng, &acct)
			check("corrected", fixed)
			fixed.CheckerSource = mutate.CorruptSyntax(fixed.CheckerSource, rng)
			check("corrected, corrupt checker", fixed)
		}
	}
}
